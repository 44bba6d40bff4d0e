//! The fault-wrapping server decorator.
//!
//! A chaos campaign (see `wsinterop-core`'s `faults` module) does not
//! modify the framework simulations themselves — it wraps them.
//! [`FaultyServer`] intercepts the deploy step (transient refusals,
//! published-WSDL byte corruption/truncation) and delegates the
//! *decision* of what to break to a hook, so the same subsystems serve
//! both the faithful paper campaign and the fault-injected one. The
//! hook receives the *inner* subsystem and runs it itself, which lets
//! it fail before the step, corrupt its output after, or skip it.
//!
//! Client-side faults need no decorator: an injected generator crash
//! fires before the tool runs and a slow step is virtual, so the
//! campaign injects both around its own generation call.

use wsinterop_typecat::TypeEntry;

use crate::server::{DeployOutcome, ServerInfo, ServerSubsystem};

/// Reason prefix marking a deployment refusal as *transient* — the
/// resilient runner may retry these within its budget, unlike the
/// platform's own (deterministic, permanent) binding refusals.
pub const TRANSIENT_REFUSAL_PREFIX: &str = "transient fault:";

/// `true` when a refusal reason is retryable.
pub fn is_transient_refusal(reason: &str) -> bool {
    reason.starts_with(TRANSIENT_REFUSAL_PREFIX)
}

/// Decides what (if anything) to break around one deploy call.
pub trait ServerFaultHook: Send + Sync {
    /// Runs the deploy step for `entry` on `inner`, injecting whatever
    /// faults the hook's plan prescribes for this site.
    fn deploy(&self, inner: &dyn ServerSubsystem, entry: &TypeEntry) -> DeployOutcome;
}

/// A server subsystem with a fault hook spliced into its deploy step.
pub struct FaultyServer<'a> {
    inner: &'a dyn ServerSubsystem,
    hook: &'a dyn ServerFaultHook,
}

impl<'a> FaultyServer<'a> {
    /// Wraps `inner` so every deploy goes through `hook`.
    pub fn new(inner: &'a dyn ServerSubsystem, hook: &'a dyn ServerFaultHook) -> FaultyServer<'a> {
        FaultyServer { inner, hook }
    }
}

impl ServerSubsystem for FaultyServer<'_> {
    fn info(&self) -> ServerInfo {
        self.inner.info()
    }

    fn catalog(&self) -> &'static wsinterop_typecat::Catalog {
        self.inner.catalog()
    }

    fn deploy(&self, entry: &TypeEntry) -> DeployOutcome {
        self.hook.deploy(self.inner, entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Metro;

    struct PassThroughServer;
    impl ServerFaultHook for PassThroughServer {
        fn deploy(&self, inner: &dyn ServerSubsystem, entry: &TypeEntry) -> DeployOutcome {
            inner.deploy(entry)
        }
    }

    struct RefuseOnce;
    impl ServerFaultHook for RefuseOnce {
        fn deploy(&self, _inner: &dyn ServerSubsystem, _entry: &TypeEntry) -> DeployOutcome {
            DeployOutcome::Refused {
                reason: format!("{TRANSIENT_REFUSAL_PREFIX} connection reset"),
            }
        }
    }

    #[test]
    fn pass_through_hook_is_invisible() {
        let hook = PassThroughServer;
        let faulty = FaultyServer::new(&Metro, &hook);
        assert_eq!(faulty.info(), Metro.info());
        let entry = Metro.catalog().get("java.lang.String").unwrap();
        assert_eq!(faulty.deploy(entry), Metro.deploy(entry));
    }

    #[test]
    fn transient_refusals_are_recognizable() {
        let hook = RefuseOnce;
        let faulty = FaultyServer::new(&Metro, &hook);
        let entry = Metro.catalog().get("java.lang.String").unwrap();
        match faulty.deploy(entry) {
            DeployOutcome::Refused { reason } => assert!(is_transient_refusal(&reason)),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(!is_transient_refusal("cannot bind class to any XSD type"));
    }
}
