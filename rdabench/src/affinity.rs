//! Pin the calling thread, and every thread it spawns while pinned, to
//! one CPU.
//!
//! The served workloads hand each request from the client thread to one
//! worker thread and back. Across two CPUs of the reference host (a
//! 2-vCPU virtual machine) that hand-off costs 7 µs or 60 µs depending
//! on how the hypervisor wakes a halted vCPU, for minutes at a time and
//! with identical code; on one CPU it is a context switch, 6.6–7.1 µs in
//! either state. A closed loop with one client and one worker never has
//! two runnable threads, so one CPU takes nothing away from it.

const WORDS: usize = 16; // room for 1024 CPUs

#[cfg(target_os = "linux")]
mod sys {
    // Declared by hand (the build is offline: no libc crate); both are in
    // the C library std already links.
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

#[cfg(target_os = "linux")]
fn get() -> Option<[u64; WORDS]> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &[u64; WORDS]) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte size passed,
    // only read by the call; pid 0 names the calling thread.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<[u64; WORDS]> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_mask: &[u64; WORDS]) -> bool {
    false
}

/// While this lives, the thread that made it runs on one CPU; dropping
/// it gives the thread its CPUs back. Where the host refuses (or is not
/// Linux) nothing changes and [`Pinned::is_pinned`] says so.
pub struct Pinned {
    previous: Option<[u64; WORDS]>,
}

impl Pinned {
    /// Pin to the highest-numbered CPU the thread may run on (CPU 0
    /// takes most of a small machine's interrupts).
    pub fn to_one_cpu() -> Pinned {
        let previous = get().filter(|allowed| {
            let Some(word) = allowed.iter().rposition(|w| *w != 0) else {
                return false;
            };
            let mut one = [0u64; WORDS];
            one[word] = 1 << (63 - allowed[word].leading_zeros());
            set(&one)
        });
        Pinned { previous }
    }

    pub fn is_pinned(&self) -> bool {
        self.previous.is_some()
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(previous) = &self.previous {
            set(previous);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_to_one_cpu_and_drop_restores() {
        let Some(before) = get() else {
            return; // not Linux, or the host refuses: nothing to check
        };
        {
            let pinned = Pinned::to_one_cpu();
            assert!(pinned.is_pinned());
            let now = get().unwrap();
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            // A thread spawned while pinned inherits the one CPU.
            let child = std::thread::spawn(get).join().unwrap().unwrap();
            assert_eq!(child, now);
        }
        assert_eq!(get().unwrap(), before);
    }
}
