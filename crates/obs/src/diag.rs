//! Shared stderr diagnostics: the warn-once channel and the checked
//! env-var parsing the `INCDES_SCENARIO_RETRIES` and
//! `INCDES_STORE_LOCK_MS` overrides use.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();

/// Prints `message` to stderr the first time `key` is seen in this
/// process; later calls with the same key are silent. Returns whether
/// the message was printed (so once-ness is testable).
pub fn warn_once(key: &str, message: &str) -> bool {
    let warned = WARNED.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut warned = warned.lock().unwrap_or_else(|e| e.into_inner());
    if warned.insert(key.to_string()) {
        eprintln!("{message}");
        true
    } else {
        false
    }
}

/// Digits-only `usize` parse: surrounding whitespace is tolerated,
/// signs, decimals and anything else are not.
pub fn parse_usize(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok()
}

/// Reads the environment variable `var` as a `usize`. Unset returns
/// `None` silently; a set-but-unparsable value warns once (keyed by
/// `var`, with `expected` describing the accepted range) and also
/// returns `None`, so callers keep their built-in default.
pub fn env_usize(var: &str, expected: &str) -> Option<usize> {
    let raw = std::env::var(var).ok()?;
    match parse_usize(&raw) {
        Some(n) => Some(n),
        None => {
            warn_once(
                var,
                &format!("incdes: ignoring unparsable {var}={raw:?}: {expected}"),
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_usize_accepts_digits_only() {
        assert_eq!(parse_usize("0"), Some(0));
        assert_eq!(parse_usize("4"), Some(4));
        assert_eq!(parse_usize(" 8 "), Some(8));
        assert_eq!(parse_usize(""), None);
        assert_eq!(parse_usize("four"), None);
        assert_eq!(parse_usize("-1"), None);
        assert_eq!(parse_usize("1.5"), None);
    }

    #[test]
    fn warn_once_fires_exactly_once_per_key() {
        assert!(warn_once("obs-test-key-a", "first"));
        assert!(!warn_once("obs-test-key-a", "second"));
        assert!(warn_once("obs-test-key-b", "different key still fires"));
    }

    #[test]
    fn env_usize_reads_and_warns_once() {
        std::env::set_var("INCDES_OBS_TEST_GOOD", "12");
        assert_eq!(env_usize("INCDES_OBS_TEST_GOOD", "an integer"), Some(12));
        std::env::set_var("INCDES_OBS_TEST_BAD", "nope");
        assert_eq!(env_usize("INCDES_OBS_TEST_BAD", "an integer"), None);
        // The warn key is consumed now; the second read stays silent
        // (observable via warn_once's return on the same key).
        assert_eq!(env_usize("INCDES_OBS_TEST_BAD", "an integer"), None);
        assert!(!warn_once("INCDES_OBS_TEST_BAD", "already warned"));
        assert_eq!(env_usize("INCDES_OBS_TEST_UNSET", "an integer"), None);
    }
}
