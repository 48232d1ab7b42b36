//! The thread-local slot a `Budget` and a fault `Plan` are installed in.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::thread::LocalKey;

/// A thread's installed `Arc<T>`, gated so that with nothing installed a
/// read is one `Cell<bool>` TLS load.
pub(crate) struct Slot<T: 'static>(
    pub(crate) &'static LocalKey<Cell<bool>>,
    pub(crate) &'static LocalKey<RefCell<Option<Arc<T>>>>,
);

impl<T> Slot<T> {
    /// Runs `f` on the installed value, if there is one.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&Arc<T>) -> R) -> Option<R> {
        if !self.0.with(Cell::get) {
            return None;
        }
        self.1.with(|c| c.borrow().as_ref().map(f))
    }

    /// Runs `f` with `value` (`None`: nothing) installed, then restores the
    /// thread's own — also when `f` unwinds, as on a pooled worker.
    pub(crate) fn install<R>(&'static self, value: Option<Arc<T>>, f: impl FnOnce() -> R) -> R {
        struct Restore<T: 'static>(&'static Slot<T>, Option<Arc<T>>);
        impl<T> Drop for Restore<T> {
            fn drop(&mut self) {
                self.0.set(self.1.take());
            }
        }
        let _restore = Restore(self, self.set(value));
        f()
    }

    fn set(&self, value: Option<Arc<T>>) -> Option<Arc<T>> {
        self.0.with(|a| a.set(value.is_some()));
        self.1.with(|c| c.replace(value))
    }
}
