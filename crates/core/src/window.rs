//! Sliding-window configuration.

use ksir_types::{KsirError, Result, Timestamp};

/// Configuration of the time-based sliding window.
///
/// A window of length `T` at time `t` covers timestamps `[t - T + 1, t]`
/// (Definition in §3.1).  The stream is ingested in buckets of length `L`
/// (§4, "the stream is partitioned into buckets with equal time length L and
/// updated at discrete time L, 2L, …").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    window_len: u64,
    bucket_len: u64,
}

impl WindowConfig {
    /// Creates a window configuration.
    ///
    /// `window_len` (`T`) and `bucket_len` (`L`) must be positive and the
    /// bucket must not be longer than the window.
    pub fn new(window_len: u64, bucket_len: u64) -> Result<Self> {
        if window_len == 0 {
            return Err(KsirError::invalid_parameter(
                "window_len",
                "window length T must be positive",
            ));
        }
        if bucket_len == 0 {
            return Err(KsirError::invalid_parameter(
                "bucket_len",
                "bucket length L must be positive",
            ));
        }
        if bucket_len > window_len {
            return Err(KsirError::invalid_parameter(
                "bucket_len",
                format!(
                    "bucket length L = {bucket_len} must not exceed window length T = {window_len}"
                ),
            ));
        }
        Ok(WindowConfig {
            window_len,
            bucket_len,
        })
    }

    /// The window length `T`.
    #[inline]
    pub fn window_len(&self) -> u64 {
        self.window_len
    }

    /// The bucket length `L`.
    #[inline]
    pub fn bucket_len(&self) -> u64 {
        self.bucket_len
    }

    /// First timestamp still inside the window at time `t`, i.e. `t - T + 1`.
    #[inline]
    pub fn window_start(&self, now: Timestamp) -> Timestamp {
        Timestamp(now.raw().saturating_sub(self.window_len - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(WindowConfig::new(0, 1).is_err());
        assert!(WindowConfig::new(10, 0).is_err());
        assert!(WindowConfig::new(10, 11).is_err());
        assert!(WindowConfig::new(10, 10).is_ok());
        let c = WindowConfig::new(24, 4).unwrap();
        assert_eq!(c.window_len(), 24);
        assert_eq!(c.bucket_len(), 4);
    }

    #[test]
    fn window_start_matches_paper_definition() {
        // T = 4, t = 8 → window covers [5, 8] (Example 3.2 of the paper).
        let c = WindowConfig::new(4, 1).unwrap();
        assert_eq!(c.window_start(Timestamp(8)), Timestamp(5));
    }

    #[test]
    fn window_start_saturates_at_zero() {
        let c = WindowConfig::new(100, 1).unwrap();
        assert_eq!(c.window_start(Timestamp(5)), Timestamp(0));
    }
}
