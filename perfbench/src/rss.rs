//! The process's peak resident set, per phase: the kernel's high-water
//! mark (`VmHWM`), reset at the start of each phase through
//! `/proc/self/clear_refs`.

/// Resets the high-water mark to the current resident set. Where the
/// kernel refuses, the mark keeps counting from the start of the process.
pub fn reset_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The high-water mark since the last reset, in MiB.
pub fn peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Hands memory the allocator keeps after frees back to the kernel, so a
/// cycle's peak does not carry what an earlier cycle left behind.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only returns free heap pages to the
        // kernel; it has no preconditions.
        unsafe {
            malloc_trim(0);
        }
    }
}
