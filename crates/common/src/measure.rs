//! How every binary of the workspace reports: human-readable byte and
//! nanosecond counts ([`fmt_bytes`], [`fmt_ns`]) and the flat JSON
//! summary a `--json=<path>` flag writes ([`json_string`],
//! [`write_json_summary`]). Nothing here reads a clock: the serving stack
//! counts work ([`crate::metrics`]), and wall time is measured by the
//! callers that report it — the benchmark and the verdict harnesses.

/// Human-readable byte counts.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 10 * 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Human-readable nanoseconds.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Escapes a string per RFC 8259 (Rust's `{:?}` is close but emits the
/// non-JSON `\u{…}` brace syntax for non-ASCII characters).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Assembles `fields` (each a rendered `"key": value` pair; the
/// environment has no serde) into the flat JSON object every `--json`
/// flow writes, and reports the path on standard output.
///
/// # Errors
///
/// The I/O failure, with the path, when the file cannot be written.
pub fn write_json_summary(path: &str, fields: &[String]) -> Result<(), String> {
    let json = format!("{{\n  {}\n}}\n", fields.join(",\n  "));
    std::fs::write(path, json).map_err(|e| format!("write `{path}`: {e}"))?;
    println!("  wrote JSON summary to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert!(fmt_bytes(50_000).contains("KiB"));
        assert!(fmt_ns(50_000).contains("µs"));
        assert_eq!(json_string("a\"b\n\u{1}é"), "\"a\\\"b\\n\\u0001é\"");
    }
}
