"""Tests for the opt-in admission control (maxThreads / max_connections)."""



def drain(kernel):
    kernel.run()


class TestTomcatAdmission:
    def test_disabled_by_default(self, kernel, stack):
        assert stack.tomcat.admission_limit is None

    def test_limit_rejects_excess(self, kernel, stack):
        stack.tomcat.admission_limit = 2
        results = []
        for _ in range(5):
            # slow queries keep threads busy
            stack.request(db=1.0, then=lambda r: results.append(r.error is None))
        kernel.run()
        assert results.count(False) == 3
        assert stack.tomcat.rejected == 3
        assert results.count(True) == 2

    def test_threads_release_after_completion(self, kernel, stack):
        stack.tomcat.admission_limit = 1
        first = stack.request()
        kernel.run()
        assert first.completed_at is not None and first.error is None
        second = stack.request()
        kernel.run()
        assert second.completed_at is not None and second.error is None

    def test_rejection_error_names_server(self, kernel, stack):
        stack.tomcat.admission_limit = 0
        errors = []
        stack.request(then=lambda r: errors.append(str(r.error)))
        kernel.run()
        assert "503" in errors[0]


class TestMySqlAdmission:
    def test_connection_limit_rejects_reads(self, kernel, stack):
        stack.mysql.admission_limit = 1
        outcomes = []
        for _ in range(3):
            stack.mysql.execute_read(
                0.5, 1, lambda: outcomes.append(None), outcomes.append
            )
        kernel.run()
        refused = [e for e in outcomes if isinstance(e, ConnectionError)]
        assert len(refused) == 2
        assert stack.mysql.rejected == 2


class TestWrapperPlumbing:
    def test_enforce_limits_attribute(self, kernel, lan, directory):
        from repro.cluster.node import make_nodes
        from repro.wrappers.mysql import make_mysql_component
        from repro.wrappers.tomcat import make_tomcat_component

        nodes = make_nodes(kernel, 2)
        kw = dict(kernel=kernel, directory=directory, lan=lan)
        mysql = make_mysql_component(
            "m", {"enforce_limits": "true", "max_connections": 7}, node=nodes[0], **kw
        )
        mysql.start()
        assert mysql.content.server.admission_limit == 7
        mysql.set_attr("enforce_limits", False)
        assert mysql.content.server.admission_limit is None

        tomcat = make_tomcat_component(
            "t", {"max_threads": 9}, node=nodes[1], **kw
        )
        tomcat.bind("jdbc", mysql.get_interface("jdbc"))
        tomcat.start()
        assert tomcat.content.server.admission_limit is None
        tomcat.set_attr("enforce_limits", True)
        assert tomcat.content.server.admission_limit == 9

    def test_limit_follows_attribute_update(self, kernel, lan, directory):
        from repro.cluster.node import make_nodes
        from repro.wrappers.mysql import make_mysql_component

        node = make_nodes(kernel, 1)[0]
        mysql = make_mysql_component(
            "m", {"enforce_limits": "true"},
            node=node, kernel=kernel, directory=directory, lan=lan,
        )
        mysql.start()
        mysql.set_attr("max_connections", 3)
        assert mysql.content.server.admission_limit == 3
