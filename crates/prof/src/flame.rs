//! Inline-SVG flame chart rendered from collapsed-stack text.
//!
//! The input is the `stack;path;here VALUE` format of
//! [`crate::collapsed`] (or any flamegraph.pl-compatible file); the
//! output is a self-contained `<svg>` element — no scripts, no external
//! references — suitable for embedding in the `mzd report` page. Pure
//! function of its input: equal profiles render byte-identical charts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Default)]
struct Node {
    /// Value attributed to this frame itself.
    self_value: u64,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn total(&self) -> u64 {
        self.self_value + self.children.values().map(Node::total).sum::<u64>()
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Node::depth).max().unwrap_or(0)
    }
}

/// Parse collapsed-stack lines into a root tree. Malformed lines are
/// skipped, matching the report renderer's tolerance.
fn parse(collapsed: &str) -> Node {
    let mut root = Node::default();
    for line in collapsed.lines() {
        let line = line.trim();
        let Some((stack, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        if stack.is_empty() {
            continue;
        }
        let mut node = &mut root;
        for frame in stack.split(';') {
            node = node.children.entry(frame.to_string()).or_default();
        }
        node.self_value += value;
    }
    root
}

const WIDTH: f64 = 1000.0;
const ROW: f64 = 17.0;
/// Frames narrower than this many px are dropped (unreadable anyway).
const MIN_W: f64 = 0.5;

/// Deterministic warm palette keyed by the frame name.
fn color(name: &str) -> &'static str {
    const PALETTE: [&str; 8] = [
        "#e4573f", "#e67e22", "#e3a72f", "#d4533b", "#eb9c51", "#cd6633", "#e8743b", "#da8a3d",
    ];
    PALETTE[crate::fnv1a64(name.as_bytes()) as usize % PALETTE.len()]
}

/// Escape text for HTML/SVG element content and attribute values: `&`,
/// `<`, `>` and `"` become entities, everything else passes through.
#[must_use]
pub fn escape_html(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[allow(clippy::cast_precision_loss)]
fn emit(out: &mut String, name: &str, node: &Node, x: f64, depth: usize, scale: f64, total: u64) {
    let w = node.total() as f64 * scale;
    if w < MIN_W {
        return;
    }
    let y = depth as f64 * ROW;
    let pct = 100.0 * node.total() as f64 / total as f64;
    let _ = write!(
        out,
        "<g><title>{} ({} ns, {:.1}%)</title>\
         <rect x=\"{:.2}\" y=\"{y:.1}\" width=\"{:.2}\" height=\"{:.1}\" \
         fill=\"{}\" stroke=\"#fff\" stroke-width=\"0.5\"/>",
        escape_html(name),
        node.total(),
        pct,
        x,
        w,
        ROW - 1.0,
        color(name)
    );
    if w >= 40.0 {
        let _ = write!(
            out,
            "<text x=\"{:.2}\" y=\"{:.1}\" font-size=\"11\" fill=\"#fff\" \
             font-family=\"monospace\">{}</text>",
            x + 3.0,
            y + ROW - 5.0,
            escape_html(name)
        );
    }
    out.push_str("</g>");
    let mut cx = x;
    for (child_name, child) in &node.children {
        emit(out, child_name, child, cx, depth + 1, scale, total);
        cx += child.total() as f64 * scale;
    }
}

/// Render collapsed-stack text as an inline SVG flame chart. An empty
/// or unparsable profile renders a placeholder SVG rather than failing.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn render_flame_svg(collapsed: &str) -> String {
    let root = parse(collapsed);
    let total = root.total();
    if total == 0 {
        return String::from(
            "<svg viewBox=\"0 0 1000 24\" width=\"1000\" height=\"24\" role=\"img\">\
             <text x=\"4\" y=\"16\" font-size=\"12\" fill=\"#777\">\
             (empty profile)</text></svg>",
        );
    }
    let depth = root.depth() - 1; // root itself is not drawn
    let height = depth.max(1) as f64 * ROW + 2.0;
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {WIDTH} {height:.0}\" width=\"{WIDTH}\" height=\"{height:.0}\" \
         role=\"img\">"
    );
    let scale = WIDTH / total as f64;
    let mut x = 0.0;
    for (name, child) in &root.children {
        emit(&mut out, name, child, x, 0, scale, total);
        x += child.total() as f64 * scale;
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_stacks() {
        let svg = render_flame_svg("round 100\nround;sweep 700\nround;slo 200\n");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(svg.contains("round"));
        assert!(svg.contains("sweep"));
        // Sweep occupies 70% of the width.
        assert!(svg.contains("width=\"700.00\""), "{svg}");
        // Deterministic: same input, same bytes.
        assert_eq!(
            svg,
            render_flame_svg("round 100\nround;sweep 700\nround;slo 200\n")
        );
        // Self-contained.
        assert!(!svg.contains("http"));
        assert!(!svg.contains("<script"));
    }

    #[test]
    fn empty_and_malformed_profiles_render_placeholder() {
        assert!(render_flame_svg("").contains("empty profile"));
        assert!(render_flame_svg("no trailing value\n???\n").contains("empty profile"));
        // A malformed line among good ones is skipped.
        let svg = render_flame_svg("garbage\na;b 50\n");
        assert!(svg.contains("</svg>"));
        assert!(!svg.contains("empty profile"));
    }

    #[test]
    fn escapes_frame_names() {
        let svg = render_flame_svg("<evil>&\"x\" 1000\n");
        assert!(!svg.contains("<evil>"));
        assert!(svg.contains("&lt;evil&gt;"));
    }
}
