//! Pinning a thread to one CPU, for the server's worker pool.
//!
//! [`pin_to_cpu`] wraps the raw `sched_setaffinity(2)` syscall (the
//! workspace builds without libc). On platforms without it the call reports
//! `false` and the thread stays unpinned.

/// Largest CPU id the affinity mask covers (a 1024-bit mask, the kernel's
/// historical default).
const MAX_CPUS: usize = 1024;

/// Pin the calling thread to `cpu`. Returns `false` (the thread stays
/// unpinned) when `cpu` is out of range or the platform or the syscall
/// refuses.
pub(crate) fn pin_to_cpu(cpu: usize) -> bool {
    if cpu >= MAX_CPUS {
        return false;
    }
    let mut mask = [0u64; MAX_CPUS / 64];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    sys::setaffinity(&mask)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    const SYS_SCHED_SETAFFINITY: usize = 203;

    pub fn setaffinity(mask: &[u64]) -> bool {
        let ret: isize;
        // Safety: pid 0 = calling thread; the kernel reads `size_of_val(mask)`
        // bytes from the mask buffer, which outlives the call.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
                in("rdi") 0usize,
                in("rsi") core::mem::size_of_val(mask),
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        ret == 0
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod sys {
    const SYS_SCHED_SETAFFINITY: usize = 122;

    pub fn setaffinity(mask: &[u64]) -> bool {
        let ret: isize;
        // Safety: pid 0 = calling thread; the kernel reads `size_of_val(mask)`
        // bytes from the mask buffer, which outlives the call.
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") SYS_SCHED_SETAFFINITY,
                inlateout("x0") 0usize => ret,
                in("x1") core::mem::size_of_val(mask),
                in("x2") mask.as_ptr(),
                options(nostack)
            );
        }
        ret == 0
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    pub fn setaffinity(_mask: &[u64]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_graceful() {
        // A scratch thread, so the pin cannot outlive the test.
        std::thread::spawn(|| {
            // CPU 0 may be outside this process's allowed set: the pin may
            // politely fail, but when it succeeds the thread runs on one CPU.
            if pin_to_cpu(0) {
                let cpus = std::thread::available_parallelism().map(|n| n.get());
                assert_eq!(cpus.ok(), Some(1), "a pinned thread sees one CPU");
            }
            assert!(!pin_to_cpu(MAX_CPUS), "out-of-range pin must refuse");
            assert!(!pin_to_cpu(usize::MAX), "out-of-range pin must refuse");
        })
        .join()
        .expect("pinning must not panic");
    }
}
