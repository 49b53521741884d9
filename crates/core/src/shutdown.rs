//! Graceful-shutdown signal handling for the `secureloop` binary.
//!
//! [`install_handlers`] registers SIGINT/SIGTERM handlers that do
//! exactly one async-signal-safe thing: store `true` into the
//! process-wide shutdown flag owned by `secureloop_mapper::cancel`.
//! That flag is the root of every
//! [`CancelToken`](secureloop_mapper::CancelToken): the sweep engine
//! polls its token between design points and the mapper at chunk
//! boundaries, so a Ctrl-C drains the current design point, flushes
//! the checkpoint and candidate cache, and exits with the distinct
//! "interrupted, resumable" code instead of killing the run mid-write.
//!
//! No external crates: on Unix the handler is registered through a
//! direct `signal(2)` FFI declaration; elsewhere [`install_handlers`]
//! is a no-op (the flag can still be flipped programmatically via
//! `secureloop_mapper::cancel::request_shutdown`).

#[cfg(unix)]
mod imp {
    use std::ffi::c_int;

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    extern "C" fn on_signal(_signum: c_int) {
        // Only an atomic store: anything else (allocation, locking,
        // stdio) is not async-signal-safe.
        secureloop_mapper::cancel::request_shutdown();
    }

    pub fn install() {
        // SAFETY: `on_signal` is an `extern "C"` fn that only stores to
        // an atomic, and `signal` is the POSIX libc symbol (libc is
        // already linked by std on every Unix target).
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Register SIGINT/SIGTERM handlers that request a graceful shutdown.
///
/// Call once, from the binary's `main` — library users (and the test
/// suite) keep their default signal disposition and drive the flag
/// through `secureloop_mapper::cancel::{request_shutdown,
/// reset_shutdown}` instead.
pub fn install_handlers() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Flipping the global flag here would race with the scheduler
    // tests running concurrently in this process; the request/reset
    // round trip is exercised in the serialised `supervision`
    // integration suite instead.

    #[test]
    fn handlers_install_without_crashing() {
        install_handlers();
        assert!(
            !secureloop_mapper::cancel::shutdown_requested(),
            "installing handlers must not request one"
        );
    }
}
