//! The machine-readable findings document (`--json`).

use crate::{AuditReport, RULES};

/// Schema tag of the `--json` findings document.
pub const FINDINGS_SCHEMA: &str = "atac-audit-v3";

/// The machine-readable findings document (`--json`): rules, violations
/// and the full hot-path allocation census.
pub fn findings_json(rep: &AuditReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{FINDINGS_SCHEMA}\",\n"));
    out.push_str(&format!("  \"rules\": {},\n", RULES.len()));

    out.push_str("  \"violations\": [");
    for (i, v) in rep.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \
             \"snippet\": {}}}",
            escape(&v.file),
            v.line,
            escape(v.rule),
            escape(&v.message),
            escape(&v.snippet)
        ));
    }
    out.push_str(if rep.violations.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"census\": [");
    for (i, s) in rep.census.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"func\": {}, \"kind\": {}, \
             \"per_cycle\": {}, \"snippet\": {}}}",
            escape(&s.file),
            s.line,
            escape(&s.func),
            escape(s.kind),
            s.per_cycle,
            escape(&s.snippet)
        ));
    }
    out.push_str(if rep.census.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

/// JSON string literal with the escapes this workspace's emitters use.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atac_trace::json;

    fn v(rule: &'static str, file: &str, snippet: &str) -> crate::Violation {
        crate::Violation {
            file: file.to_string(),
            line: 7,
            rule,
            message: "msg".to_string(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn findings_json_is_parseable_and_tagged() {
        let rep = AuditReport {
            violations: vec![v("hot-alloc", "a.rs", "x.push(\"s\\\\\");")],
            census: vec![crate::AllocSite {
                file: "a.rs".to_string(),
                line: 7,
                func: "tick".to_string(),
                kind: "push",
                per_cycle: true,
                snippet: "x.push(1);".to_string(),
            }],
        };
        let doc = json::parse(&findings_json(&rep)).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(json::Json::as_str),
            Some(FINDINGS_SCHEMA)
        );
        assert_eq!(
            doc.get("rules").and_then(json::Json::as_u64),
            Some(RULES.len() as u64)
        );
        let viol = doc.get("violations").and_then(json::Json::as_arr).unwrap();
        assert_eq!(viol.len(), 1);
        assert_eq!(
            viol[0].get("snippet").and_then(json::Json::as_str),
            Some("x.push(\"s\\\\\");")
        );
        let census = doc.get("census").and_then(json::Json::as_arr).unwrap();
        assert_eq!(
            census[0].get("func").and_then(json::Json::as_str),
            Some("tick")
        );
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let rep = AuditReport::default();
        json::parse(&findings_json(&rep)).expect("valid JSON");
    }
}
