//! `std::sync` primitives behind the `parking_lot`-shaped API the
//! workspace uses: `lock()` returns the guard directly (a poisoned lock
//! is transparently recovered — a panicking test thread must not
//! cascade into unrelated poison panics).
//!
//! One import path for every crate: `use mirage_testkit::sync::Mutex;`.

/// A mutual-exclusion lock whose `lock()` never returns a `Result`.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. Poison from a
    /// panicked holder is ignored (parking_lot semantics).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic_exclusion() {
        let m = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(5u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // parking_lot semantics: the value is still reachable.
        assert_eq!(*m.lock(), 5);
    }
}
