//! Process shutdown flag, settable from a Unix signal handler.
//!
//! The serving loop polls [`shutdown_flag`]; `SIGTERM`/`SIGINT` flip
//! the flag asynchronously (the only async-signal-safe thing a handler may
//! do is a lock-free store). The dependency-free route to a handler is the
//! C `signal()` function, which requires one tiny `unsafe` block — isolated
//! here, with the rest of the crate denying `unsafe_code`.

use std::sync::atomic::AtomicBool;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The process-global flag itself, for wiring into [`crate::serve`]
/// (tests that run several servers pass their own flags instead).
pub fn shutdown_flag() -> &'static AtomicBool {
    &SHUTDOWN
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod unix {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // POSIX signal(2), provided by libc (always linked by std on unix).
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single lock-free store.
        super::SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `on_signal` is an `extern "C" fn(i32)` that only performs
        // an atomic store, which is async-signal-safe; `signal` itself is
        // safe to call with a valid function pointer.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

/// Installs `SIGTERM`/`SIGINT` handlers that flip the shutdown flag
/// (no-op on non-Unix platforms).
pub fn install_handlers() {
    #[cfg(unix)]
    unix::install();
}
