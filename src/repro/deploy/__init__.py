"""Zero-downtime deployments (extension).

Versioned server configurations pushed through four bounce strategies
(:mod:`repro.deploy.bounce`), judged by a canary controller and rolled
back automatically when the new version violates its SLO deltas
(:mod:`repro.deploy.canary`), scored per seed with confidence intervals
(:mod:`repro.deploy.scorecard`).

The paper's managed system can grow, shrink and repair a tier — but its
lifecycle story ends there.  This package closes the loop on the other
reconfiguration every clustered application lives with: shipping a new
server configuration without dropping the site, and un-shipping it when
the push was bad.
"""
