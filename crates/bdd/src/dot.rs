//! Graphviz DOT export for inspection and documentation figures.

use crate::fxhash::HashSet;
use crate::manager::{Bdd, NodeId};
use std::fmt::Write as _;

impl Bdd {
    /// Renders the diagram rooted at `f` in Graphviz DOT syntax.
    ///
    /// Solid edges are `high` (variable = 1) branches, dashed edges are
    /// `low` branches, following the usual BDD drawing convention.
    ///
    /// # Example
    ///
    /// ```
    /// use naps_bdd::Bdd;
    ///
    /// let mut bdd = Bdd::new(2);
    /// let x0 = bdd.var(0);
    /// let x1 = bdd.var(1);
    /// let f = bdd.and(x0, x1);
    /// let dot = bdd.to_dot(f, "and");
    /// assert!(dot.contains("digraph"));
    /// ```
    pub fn to_dot(&self, f: NodeId, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  t0 [label=\"0\", shape=box];");
        let _ = writeln!(out, "  t1 [label=\"1\", shape=box];");

        let mut seen: HashSet<NodeId> = HashSet::default();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || seen.contains(&n) {
                continue;
            }
            seen.insert(n);
            let node = self.nodes[n.index()];
            let _ = writeln!(
                out,
                "  n{} [label=\"x{}\", shape=circle];",
                n.index(),
                node.var
            );
            let _ = writeln!(
                out,
                "  n{} -> {} [style=dashed];",
                n.index(),
                dot_target(node.low)
            );
            let _ = writeln!(out, "  n{} -> {};", n.index(), dot_target(node.high));
            stack.push(node.low);
            stack.push(node.high);
        }
        if f.is_terminal() {
            let _ = writeln!(out, "  root -> {};", dot_target(f));
            let _ = writeln!(out, "  root [shape=point];");
        }
        out.push_str("}\n");
        out
    }
}

fn dot_target(n: NodeId) -> String {
    match n {
        NodeId::ZERO => "t0".to_owned(),
        NodeId::ONE => "t1".to_owned(),
        other => format!("n{}", other.index()),
    }
}

#[cfg(test)]
mod tests {
    use crate::Bdd;

    #[test]
    fn dot_contains_all_decision_nodes() {
        let mut bdd = Bdd::new(3);
        let f = bdd.cube_from_bools(&[true, false, true]);
        let dot = bdd.to_dot(f, "cube");
        assert!(dot.contains("x0"));
        assert!(dot.contains("x1"));
        assert!(dot.contains("x2"));
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_of_terminal_has_root_marker() {
        let bdd = Bdd::new(2);
        let dot = bdd.to_dot(bdd.one(), "true");
        assert!(dot.contains("root"));
        assert!(dot.contains("t1"));
    }

    #[test]
    fn dashed_edges_mark_low_branches() {
        let mut bdd = Bdd::new(1);
        let f = bdd.var(0);
        let dot = bdd.to_dot(f, "v");
        assert!(dot.contains("style=dashed"));
    }
}
