//! Pre-execution static verification of a recorded tape.
//!
//! [`Var::backward`](crate::Var::backward) walks the tape trusting that
//! every node's metadata is consistent — shapes line up, edges point
//! backwards, and every parameter is actually connected to the output.
//! When that trust is misplaced (a hand-built graph, a detached-proxy
//! mistake, a future op with a buggy recording), the failure mode is a
//! panic deep inside an epoch or — worse — a silently-zero gradient.
//!
//! [`verify_tape`] walks the recorded [`NodeMeta`] *before* `backward`
//! runs and returns a typed [`GraphReport`] instead of panicking:
//!
//! * **shape safety** — each node's recorded output shape must match both
//!   the tensor actually stored at the node and the shape its op would
//!   produce from its inputs' shapes;
//! * **edge sanity** — every input edge must point at an earlier node
//!   (the reverse walk visits ids in descending order, so a forward or
//!   self edge would silently drop gradient);
//! * **grad flow** — every parameter recorded on the tape must be
//!   reachable from the root, otherwise its gradient stays zero without
//!   any error;
//! * **dead nodes** — non-leaf nodes unreachable from the root are
//!   reported separately as wasted forward work (informational, not
//!   fatal: a loss graph legitimately drops e.g. an unused hash code
//!   when an anchor has no ranking pairs).
//!
//! The verifier is pure analysis: it never touches tensor data beyond
//! shapes and never mutates the tape, so it is cheap enough for the
//! trainer's debug-build hook to run on the first batch of every epoch.

use crate::tape::{Op, Tape, Var};
use std::fmt;

/// One fatal inconsistency found in a recorded tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphIssue {
    /// The queried root does not live on the verified tape at all.
    ForeignRoot,
    /// A node's recorded shape disagrees with the tensor stored at it.
    RecordedShapeDrift {
        /// Node id.
        node: usize,
        /// The node's op.
        op: Op,
        /// Shape in the metadata.
        recorded: (usize, usize),
        /// Shape of the stored value.
        actual: (usize, usize),
    },
    /// A node's inputs have shapes its op cannot combine.
    IncompatibleInputs {
        /// Node id.
        node: usize,
        /// The node's op.
        op: Op,
        /// What exactly is incompatible.
        detail: String,
    },
    /// An op applied to its inputs' shapes would produce a different
    /// output shape than the one recorded.
    ShapeMismatch {
        /// Node id.
        node: usize,
        /// The node's op.
        op: Op,
        /// Shape the op would produce.
        expected: (usize, usize),
        /// Shape actually recorded.
        recorded: (usize, usize),
    },
    /// An input edge points at the node itself or a later node, which the
    /// reverse-order backward walk would silently skip.
    BadEdge {
        /// Node id.
        node: usize,
        /// The offending input id.
        input: usize,
    },
    /// A parameter leaf with no path to the root: `backward` from the
    /// root can never deposit a gradient into it.
    UnreachableParam {
        /// The parameter's leaf node id.
        node: usize,
    },
}

impl fmt::Display for GraphIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphIssue::ForeignRoot => {
                write!(f, "root var does not belong to the verified tape")
            }
            GraphIssue::RecordedShapeDrift { node, op, recorded, actual } => write!(
                f,
                "node {node} ({}): recorded shape {recorded:?} != stored value shape {actual:?}",
                op.name()
            ),
            GraphIssue::IncompatibleInputs { node, op, detail } => {
                write!(f, "node {node} ({}): incompatible inputs: {detail}", op.name())
            }
            GraphIssue::ShapeMismatch { node, op, expected, recorded } => write!(
                f,
                "node {node} ({}): op produces {expected:?} but {recorded:?} was recorded",
                op.name()
            ),
            GraphIssue::BadEdge { node, input } => write!(
                f,
                "node {node}: input edge to node {input} does not point backwards"
            ),
            GraphIssue::UnreachableParam { node } => write!(
                f,
                "param node {node} is unreachable from the root: its gradient can never be \
                 updated"
            ),
        }
    }
}

/// The result of statically verifying a tape against a root node.
///
/// `issues` are fatal: running `backward` on a tape with any of them
/// either panics or silently computes wrong/missing gradients.
/// `dead_nodes` are informational: forward work whose result cannot
/// influence the root.
#[derive(Debug, Clone, Default)]
pub struct GraphReport {
    /// Fatal inconsistencies, in ascending node order.
    pub issues: Vec<GraphIssue>,
    /// Non-leaf nodes unreachable from the root (wasted forward compute).
    pub dead_nodes: Vec<usize>,
    /// Total nodes inspected.
    pub nodes_checked: usize,
    /// Parameter leaves on the tape.
    pub params: usize,
}

impl GraphReport {
    /// True when no fatal issue was found (dead nodes do not count).
    pub fn is_ok(&self) -> bool {
        self.issues.is_empty()
    }
}

impl fmt::Display for GraphReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} params: {} issue(s), {} dead node(s)",
            self.nodes_checked,
            self.params,
            self.issues.len(),
            self.dead_nodes.len()
        )?;
        for issue in &self.issues {
            write!(f, "\n  - {issue}")?;
        }
        Ok(())
    }
}

/// Output shape `op` produces from its inputs' shapes, or a description
/// of why the inputs are incompatible.
fn expected_shape(op: Op, ins: &[(usize, usize)]) -> Result<(usize, usize), String> {
    let same = |a: (usize, usize), b: (usize, usize)| -> Result<(usize, usize), String> {
        if a == b {
            Ok(a)
        } else {
            Err(format!("elementwise op over {a:?} and {b:?}"))
        }
    };
    match op {
        Op::Constant | Op::Param => Err("leaf op cannot have inputs".into()),
        Op::Add | Op::Sub | Op::Mul | Op::Div => same(ins[0], ins[1]),
        Op::AddRow | Op::AddRowRelu => {
            if ins[1].0 != 1 {
                Err(format!("row operand must be 1xd, got {:?}", ins[1]))
            } else if ins[0].1 != ins[1].1 {
                Err(format!("width mismatch: {:?} vs {:?}", ins[0], ins[1]))
            } else {
                Ok(ins[0])
            }
        }
        Op::Scale
        | Op::AddScalar
        | Op::Relu
        | Op::Tanh
        | Op::Sigmoid
        | Op::Exp
        | Op::Ln
        | Op::Sqrt
        | Op::Square
        | Op::SoftmaxRows => Ok(ins[0]),
        Op::Matmul => {
            if ins[0].1 != ins[1].0 {
                Err(format!("inner dimensions differ: {:?} x {:?}", ins[0], ins[1]))
            } else {
                Ok((ins[0].0, ins[1].1))
            }
        }
        Op::MatmulNt => {
            if ins[0].1 != ins[1].1 {
                Err(format!("shared dimensions differ: {:?} x {:?}^T", ins[0], ins[1]))
            } else {
                Ok((ins[0].0, ins[1].0))
            }
        }
        Op::Transpose => Ok((ins[0].1, ins[0].0)),
        Op::SumAll => Ok((1, 1)),
        Op::SumRows => Ok((1, ins[0].1)),
        Op::ConcatCols => {
            if ins[0].0 != ins[1].0 {
                Err(format!("row counts differ: {:?} ++ {:?}", ins[0], ins[1]))
            } else {
                Ok((ins[0].0, ins[0].1 + ins[1].1))
            }
        }
        Op::ConcatRows => {
            if ins[0].1 != ins[1].1 {
                Err(format!("widths differ: {:?} ++ {:?}", ins[0], ins[1]))
            } else {
                Ok((ins[0].0 + ins[1].0, ins[0].1))
            }
        }
        Op::SliceRows { start, len } => {
            if start + len > ins[0].0 {
                Err(format!("rows [{start}, {}) out of {:?}", start + len, ins[0]))
            } else {
                Ok((len, ins[0].1))
            }
        }
        Op::SliceCols { start, len } => {
            if start + len > ins[0].1 {
                Err(format!("cols [{start}, {}) out of {:?}", start + len, ins[0]))
            } else {
                Ok((ins[0].0, len))
            }
        }
        Op::GatherRows { count, max_index } => {
            if count > 0 && max_index >= ins[0].0 {
                Err(format!("gather index {max_index} out of {:?}", ins[0]))
            } else {
                Ok((count, ins[0].1))
            }
        }
    }
}

/// Statically verifies the recording of `tape` against `root` — the node
/// a subsequent `backward`/`backward_with` call would start from.
///
/// Never panics and never mutates the tape; see the module docs for the
/// exact checks performed.
pub fn verify_tape(tape: &Tape, root: &Var) -> GraphReport {
    let mut report = GraphReport { nodes_checked: tape.len(), ..GraphReport::default() };
    if !tape.owns(root) {
        report.issues.push(GraphIssue::ForeignRoot);
        return report;
    }
    let n = tape.len();
    let root_id = root.node_id();

    // ---- per-node structural checks --------------------------------
    for id in 0..n {
        let meta = tape.node_meta(id);
        let actual = tape.node_value_shape(id);
        if meta.shape != actual {
            report.issues.push(GraphIssue::RecordedShapeDrift {
                node: id,
                op: meta.op,
                recorded: meta.shape,
                actual,
            });
        }
        let mut edges_ok = true;
        for &input in meta.inputs() {
            if input >= id {
                report.issues.push(GraphIssue::BadEdge { node: id, input });
                edges_ok = false;
            }
        }
        if edges_ok && !meta.inputs().is_empty() {
            let ins: Vec<(usize, usize)> =
                meta.inputs().iter().map(|&i| tape.node_meta(i).shape).collect();
            match expected_shape(meta.op, &ins) {
                Err(detail) => report.issues.push(GraphIssue::IncompatibleInputs {
                    node: id,
                    op: meta.op,
                    detail,
                }),
                Ok(expected) if expected != meta.shape => {
                    report.issues.push(GraphIssue::ShapeMismatch {
                        node: id,
                        op: meta.op,
                        expected,
                        recorded: meta.shape,
                    })
                }
                Ok(_) => {}
            }
        }
    }

    // ---- reachability from the root --------------------------------
    // Follows recorded edges only while they point backwards, so a
    // mutated tape with cycles still terminates.
    let mut reachable = vec![false; n];
    let mut stack = vec![root_id];
    reachable[root_id] = true;
    while let Some(id) = stack.pop() {
        for &input in tape.node_meta(id).inputs() {
            if input < id && !reachable[input] {
                reachable[input] = true;
                stack.push(input);
            }
        }
    }

    let params = tape.param_nodes();
    report.params = params.len();
    for id in params {
        if !reachable[id] {
            report.issues.push(GraphIssue::UnreachableParam { node: id });
        }
    }
    for (id, &r) in reachable.iter().enumerate() {
        let op = tape.node_meta(id).op;
        if !r && !matches!(op, Op::Constant | Op::Param) {
            report.dead_nodes.push(id);
        }
    }

    report.issues.sort_by_key(issue_order);
    report
}

/// Sort key keeping the report deterministic: node id first, then an
/// arbitrary-but-fixed issue rank.
fn issue_order(issue: &GraphIssue) -> (usize, u8) {
    match issue {
        GraphIssue::ForeignRoot => (0, 0),
        GraphIssue::RecordedShapeDrift { node, .. } => (*node, 1),
        GraphIssue::BadEdge { node, .. } => (*node, 2),
        GraphIssue::IncompatibleInputs { node, .. } => (*node, 3),
        GraphIssue::ShapeMismatch { node, .. } => (*node, 4),
        GraphIssue::UnreachableParam { node } => (*node, 5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use crate::tensor::Tensor;

    fn healthy_graph() -> (Tape, Var, Param, Param) {
        let tape = Tape::new();
        let w = Param::new(Tensor::from_vec(2, 3, vec![0.1; 6]));
        let b = Param::new(Tensor::row_vector(&[0.5, -0.5, 0.25]));
        let x = tape.constant(Tensor::from_vec(4, 2, vec![1.0; 8]));
        let wv = tape.param(&w);
        let bv = tape.param(&b);
        let h = x.matmul(&wv).add_row_relu(&bv);
        let loss = h.square().sum_all();
        (tape, loss, w, b)
    }

    #[test]
    fn healthy_graph_verifies_clean() {
        let (tape, loss, _w, _b) = healthy_graph();
        let report = verify_tape(&tape, &loss);
        assert!(report.is_ok(), "unexpected issues: {report}");
        assert!(report.dead_nodes.is_empty());
        assert_eq!(report.params, 2);
        assert_eq!(report.nodes_checked, tape.len());
    }

    #[test]
    fn mutated_shape_is_reported() {
        let (tape, loss, _w, _b) = healthy_graph();
        tape.debug_set_node_shape(3, (7, 9));
        let report = verify_tape(&tape, &loss);
        assert!(!report.is_ok());
        assert!(
            report
                .issues
                .iter()
                .any(|i| matches!(i, GraphIssue::RecordedShapeDrift { node: 3, .. })),
            "expected drift at node 3: {report}"
        );
    }

    #[test]
    fn severed_edge_reports_unreachable_param() {
        let (tape, loss, _w, _b) = healthy_graph();
        // Node 3 is the matmul(x, w); re-point its weight input at the
        // constant x, stranding the weight parameter (node 1).
        tape.debug_set_node_input(3, 1, 0);
        let report = verify_tape(&tape, &loss);
        assert!(report.issues.iter().any(|i| matches!(i, GraphIssue::UnreachableParam { .. })));
    }

    #[test]
    fn forward_edge_is_flagged() {
        let (tape, loss, _w, _b) = healthy_graph();
        let last = tape.len() - 1;
        tape.debug_set_node_input(3, 0, last);
        let report = verify_tape(&tape, &loss);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, GraphIssue::BadEdge { node: 3, .. })));
    }

    #[test]
    fn incompatible_inputs_are_reported() {
        let (tape, loss, _w, _b) = healthy_graph();
        // Claim the constant input of the matmul is 4x5: 4x5 . 2x3 is
        // not multiplicable.
        tape.debug_set_node_shape(0, (4, 5));
        let report = verify_tape(&tape, &loss);
        assert!(report
            .issues
            .iter()
            .any(|i| matches!(i, GraphIssue::IncompatibleInputs { node: 3, .. })));
    }

    #[test]
    fn dead_node_is_informational_not_fatal() {
        let tape = Tape::new();
        let p = Param::new(Tensor::scalar(2.0));
        let v = tape.param(&p);
        let used = v.square();
        let _unused = v.scale(3.0); // recorded, never consumed
        let loss = used.sum_all();
        let report = verify_tape(&tape, &loss);
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.dead_nodes.len(), 1);
    }

    #[test]
    fn unreachable_param_without_mutation() {
        // Two params, loss only uses one — the classic detached-graph
        // mistake the verifier exists to catch.
        let tape = Tape::new();
        let used = Param::new(Tensor::scalar(1.0));
        let forgotten = Param::new(Tensor::scalar(2.0));
        let a = tape.param(&used);
        let _b = tape.param(&forgotten);
        let loss = a.square().sum_all();
        let report = verify_tape(&tape, &loss);
        assert_eq!(
            report.issues.len(),
            1,
            "exactly the forgotten param should be flagged: {report}"
        );
        assert!(matches!(report.issues[0], GraphIssue::UnreachableParam { node: 1 }));
    }

    #[test]
    fn foreign_root_is_rejected() {
        let (tape, _loss, _w, _b) = healthy_graph();
        let other = Tape::new();
        let foreign = other.constant(Tensor::scalar(1.0));
        let report = verify_tape(&tape, &foreign);
        assert_eq!(report.issues, vec![GraphIssue::ForeignRoot]);
    }

    #[test]
    fn report_display_is_readable() {
        let (tape, loss, _w, _b) = healthy_graph();
        tape.debug_set_node_shape(3, (7, 9));
        let text = verify_tape(&tape, &loss).to_string();
        assert!(text.contains("issue(s)"), "{text}");
        assert!(text.contains("node 3"), "{text}");
    }
}
