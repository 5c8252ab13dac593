//! Effect analysis: each step's static write-set, and write-write
//! collisions between steps the DAG does not order.
//!
//! Every task instance runs in its own working directory (`<run>/<step>`,
//! or `<run>/<step>_<k>` per scatter shard), so *relative* output names
//! never collide across steps — `diamond.cwl`'s `left` and `right` both
//! writing `copy.txt` is fine. The collision namespace is what escapes the
//! task directory:
//!
//! * absolute paths (`/tmp/log.txt`);
//! * relative paths whose normalization climbs out of the task directory
//!   (`../audit.log` lands in the shared run directory);
//! * writable `InitialWorkDirRequirement` entries referencing a staged
//!   input — mutating a content-store object shared across tasks (W110).
//!
//! Write names are resolved statically: literals, and `$(inputs.X)` where
//! `X` is bound to a literal constant. Anything dynamic is skipped —
//! this pass under-approximates, so every report is a real hazard.

use super::{codes, entry_path, join, Sink};
use crate::docs::DocSet;
use crate::loader::CwlDocument;
use crate::tool::CommandLineTool;
use crate::types::CwlType;
use crate::workflow::{RunRef, Step, Workflow};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use yamlite::Value;

/// One statically-known write that escapes the task's private directory.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SharedWrite {
    /// Normalized shared-namespace path (collision key).
    pub(crate) key: String,
    /// What produced it, for the message (`stdout`, `output "o" glob`, ...).
    pub(crate) origin: String,
}

/// Normalize a write name and classify it: `Some(key)` when it lands in
/// the namespace shared between tasks, `None` when it stays private to
/// the task's working directory.
pub(crate) fn shared_key(name: &str) -> Option<String> {
    let absolute = name.starts_with('/');
    let mut stack: Vec<&str> = Vec::new();
    let mut escapes = 0usize;
    for seg in name.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                if stack.pop().is_none() {
                    escapes += 1;
                }
            }
            s => stack.push(s),
        }
    }
    if absolute {
        Some(format!("/{}", stack.join("/")))
    } else if escapes > 0 {
        let mut parts = vec![".."; escapes];
        parts.extend(stack);
        Some(parts.join("/"))
    } else {
        None
    }
}

/// Resolve a write name to a static string: a literal, or `$(inputs.X)`
/// where `X` has a literal constant binding. `step` is `None` when the
/// tool is analyzed standalone (only tool-level defaults apply).
fn static_name(raw: &str, tool: &CommandLineTool, step: Option<&Step>) -> Option<String> {
    let raw = raw.trim();
    if !raw.contains("$(") && !raw.contains("${") {
        return Some(raw.to_string());
    }
    let param = raw.strip_prefix("$(inputs.")?.strip_suffix(')')?;
    if !param.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    let literal = |v: &Value| match v {
        Value::Str(s) if !s.contains("$(") && !s.contains("${") => Some(s.clone()),
        Value::Int(n) => Some(n.to_string()),
        _ => None,
    };
    if let Some(step) = step {
        let si = step.inputs.iter().find(|i| i.id == param)?;
        // A sourced or expression-transformed value is dynamic; a scattered
        // input varies per shard. Only a bare literal default is constant.
        if !si.sources.is_empty() || si.value_from.is_some() || step.scatter.contains(&si.id) {
            return None;
        }
        return si.default.as_ref().and_then(literal);
    }
    let p = tool.inputs.iter().find(|i| i.id == param)?;
    p.default.as_ref().and_then(literal)
}

/// The statically-known shared-namespace writes of one tool invocation.
pub(crate) fn shared_writes(tool: &CommandLineTool, step: Option<&Step>) -> Vec<SharedWrite> {
    let mut out = Vec::new();
    let mut push = |raw: &str, origin: String| {
        if let Some(name) = static_name(raw, tool, step) {
            // Wildcard globs collect, they don't name a single write.
            if name.contains('*') || name.contains('?') || name.contains('[') {
                return;
            }
            if let Some(key) = shared_key(&name) {
                out.push(SharedWrite { key, origin });
            }
        }
    };
    if let Some(s) = &tool.stdout {
        push(s, "stdout".to_string());
    }
    if let Some(s) = &tool.stderr {
        push(s, "stderr".to_string());
    }
    for o in &tool.outputs {
        if let Some(g) = &o.glob {
            push(g, format!("output {:?} glob", o.id));
        }
    }
    for entry in &tool.requirements.initial_workdir {
        if let Some(name) = &entry.entryname {
            push(name, "InitialWorkDirRequirement entry".to_string());
        }
    }
    out
}

/// Inputs named by writable `InitialWorkDirRequirement` entries that
/// reference a `File`/`Directory` input — under the content-addressed data
/// plane those resolve to staged objects shared with every other consumer
/// of the same content, so an in-place write corrupts them (W110).
fn writable_input_hazards(tool: &CommandLineTool) -> Vec<String> {
    let mut hazards = Vec::new();
    for entry in &tool.requirements.initial_workdir {
        if !entry.writable {
            continue;
        }
        let Some(expr) = &entry.entry else { continue };
        let Some(param) = expr
            .trim()
            .strip_prefix("$(inputs.")
            .and_then(|p| p.strip_suffix(')'))
        else {
            continue;
        };
        let is_file_input = tool.inputs.iter().any(|i| {
            i.id == param
                && matches!(
                    &i.typ,
                    CwlType::File | CwlType::Directory | CwlType::Optional(_)
                )
        });
        if is_file_input {
            hazards.push(param.to_string());
        }
    }
    hazards
}

fn w110_message(param: &str) -> String {
    format!(
        "writable InitialWorkDirRequirement entry for input {param:?} \
         may mutate a staged input shared through the content store"
    )
}

/// Tool-level effect checks (standalone tool documents): W110.
pub(crate) fn check_tool(tool: &CommandLineTool, out: &mut Sink) {
    for param in writable_input_hazards(tool) {
        out.warning(codes::WRITABLE_INPUT, "requirements", w110_message(&param));
    }
}

/// Workflow-level effect analysis: E030 write-write collisions between
/// unordered steps, E031 scatter shards sharing one write, and W110 on
/// inline tools.
pub(crate) fn check_workflow(
    wf: &Workflow,
    doc: &Value,
    docs: &DocSet,
    base_dir: Option<&Path>,
    out: &mut Sink,
) {
    // Per-step shared write-sets.
    let mut writes: Vec<(usize, &Step, Vec<SharedWrite>)> = Vec::new();
    for (i, step) in wf.steps.iter().enumerate() {
        // Load failures are already E003 in the dataflow pass.
        let Some(Ok(target)) = docs.resolve(&step.run, base_dir) else {
            continue;
        };
        let CwlDocument::Tool(tool) = target.doc.as_ref() else {
            continue;
        };
        if matches!(step.run, RunRef::Inline(_)) {
            let spath = entry_path(doc, "", "steps", &step.id);
            for param in writable_input_hazards(tool) {
                out.warning(
                    codes::WRITABLE_INPUT,
                    join(&join(&spath, "run"), "requirements"),
                    w110_message(&param),
                );
            }
        }
        writes.push((i, step, shared_writes(tool, Some(step))));
    }

    // E031: every scatter shard of a step runs concurrently in its own
    // `<step>_<k>` directory; a statically-constant shared write collides
    // with itself across shards.
    for (_, step, ws) in &writes {
        if step.scatter.is_empty() {
            continue;
        }
        let spath = entry_path(doc, "", "steps", &step.id);
        for w in ws {
            out.error(
                codes::SCATTER_EFFECT,
                join(&spath, "scatter"),
                format!(
                    "scatter shards of step {:?} all write {:?} ({}); \
                     the name does not vary per shard",
                    step.id, w.key, w.origin
                ),
            );
        }
    }

    // Transitive reachability over the step DAG (ordering edges).
    let index: HashMap<&str, usize> = wf
        .steps
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id.as_str(), i))
        .collect();
    let n = wf.steps.len();
    let mut downstream: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    for (i, step) in wf.steps.iter().enumerate() {
        for up in step.upstream_steps() {
            if let Some(&u) = index.get(up) {
                downstream[u].insert(i);
            }
        }
    }
    // Floyd–Warshall-style closure; workflows are small.
    loop {
        let mut changed = false;
        for u in 0..n {
            let next: Vec<usize> = downstream[u].iter().copied().collect();
            for v in next {
                let add: Vec<usize> = downstream[v].difference(&downstream[u]).copied().collect();
                for w in add {
                    changed |= downstream[u].insert(w);
                }
            }
        }
        if !changed {
            break;
        }
    }
    let ordered = |a: usize, b: usize| downstream[a].contains(&b) || downstream[b].contains(&a);

    // E030: same shared key written by two steps with no ordering edge.
    // Reported once per (pair, key), anchored on the later step.
    for (ai, (ia, sa, was)) in writes.iter().enumerate() {
        for (ib, sb, wbs) in writes.iter().skip(ai + 1) {
            if ordered(*ia, *ib) {
                continue;
            }
            let mut seen = HashSet::new();
            for wa in was {
                for wb in wbs {
                    if wa.key == wb.key && seen.insert(wa.key.as_str()) {
                        out.error(
                            codes::EFFECT_COLLISION,
                            entry_path(doc, "", "steps", &sb.id),
                            format!(
                                "steps {:?} and {:?} both write {:?} ({} / {}) \
                                 but no dataflow edge orders them",
                                sa.id, sb.id, wa.key, wa.origin, wb.origin
                            ),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_key_classifies() {
        assert_eq!(shared_key("copy.txt"), None);
        assert_eq!(shared_key("./sub/copy.txt"), None);
        assert_eq!(shared_key("sub/../copy.txt"), None);
        assert_eq!(shared_key("../audit.log"), Some("../audit.log".to_string()));
        assert_eq!(
            shared_key("a/../../log/x.txt"),
            Some("../log/x.txt".to_string())
        );
        assert_eq!(
            shared_key("/tmp/upper.txt"),
            Some("/tmp/upper.txt".to_string())
        );
        assert_eq!(shared_key("/tmp/../var/log"), Some("/var/log".to_string()));
    }
}
