//! The `Workflow` model (paper §II-A, Listing 3) with step linking,
//! scatter, and topological ordering.

use crate::requirements::Requirements;
use crate::tool::parse_params;
use crate::types::CwlType;
use std::collections::{HashMap, HashSet};
use yamlite::Value;

/// A workflow-level input parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowInput {
    pub id: String,
    pub typ: CwlType,
    pub default: Option<Value>,
    pub(crate) doc: Option<String>,
}

/// A workflow-level output, wired from a step output.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowOutput {
    pub id: String,
    pub(crate) typ: CwlType,
    /// `step/output` (or a workflow input id) this output forwards.
    pub output_source: String,
}

/// A step input wiring entry.
#[derive(Debug, Clone, PartialEq)]
pub struct StepInput {
    /// The target tool-input id.
    pub id: String,
    /// Upstream source when written as a single reference: a workflow input
    /// id or `step/output`. `None` when `source:` is a list (see
    /// [`Self::sources`]) or absent.
    pub source: Option<String>,
    /// All upstream sources. One entry mirrors [`Self::source`]; several
    /// entries come from a `source: [a, b]` list and are gathered per
    /// [`Self::link_merge`].
    pub sources: Vec<String>,
    /// `linkMerge` behaviour for a list source: `merge_nested` (default)
    /// or `merge_flattened`.
    pub link_merge: Option<String>,
    /// Literal default when no source provided (or source is null).
    pub default: Option<Value>,
    /// Expression transforming the value
    /// (requires `StepInputExpressionRequirement`).
    pub value_from: Option<String>,
}

impl StepInput {
    /// Whether this input gathers several sources (written as a list).
    pub fn is_multi_source(&self) -> bool {
        self.source.is_none() && !self.sources.is_empty()
    }
}

/// What a step runs.
#[derive(Debug, Clone, PartialEq)]
pub enum RunRef {
    /// A path to another CWL file, relative to the referencing document.
    Path(String),
    /// An inline embedded tool/workflow document.
    Inline(Box<Value>),
}

/// One workflow step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub id: String,
    pub run: RunRef,
    pub inputs: Vec<StepInput>,
    /// Declared outputs exposed as `step/name`.
    pub out: Vec<String>,
    /// Inputs to scatter over (each must be an array at runtime).
    pub scatter: Vec<String>,
    /// CWL v1.2 conditional execution: the step runs only when this
    /// expression is truthy (evaluated against the step's input object,
    /// after `valueFrom`); otherwise its outputs are null.
    pub when: Option<String>,
}

impl Step {
    /// Ids of steps this step consumes outputs from.
    pub fn upstream_steps(&self) -> Vec<&str> {
        self.inputs
            .iter()
            .flat_map(|i| i.sources.iter())
            .filter_map(|s| s.split_once('/').map(|(step, _)| step))
            .collect()
    }
}

/// A parsed `class: Workflow` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    pub(crate) id: Option<String>,
    pub(crate) cwl_version: String,
    pub(crate) doc: Option<String>,
    pub inputs: Vec<WorkflowInput>,
    pub outputs: Vec<WorkflowOutput>,
    pub steps: Vec<Step>,
    pub requirements: Requirements,
}

impl Workflow {
    /// Parse a `class: Workflow` document.
    pub fn parse(doc: &Value) -> Result<Self, String> {
        if doc.get("class").and_then(Value::as_str) != Some("Workflow") {
            return Err(format!(
                "expected class: Workflow, got {:?}",
                doc.get("class")
            ));
        }
        let inputs = parse_params(doc.get("inputs"), |id, body| {
            Ok(WorkflowInput {
                id: id.to_string(),
                typ: CwlType::parse(body.get("type").unwrap_or(&Value::Null))
                    .map_err(|e| format!("workflow input {id:?}: {e}"))?,
                default: body.get("default").cloned(),
                doc: body.get("doc").and_then(Value::as_str).map(str::to_string),
            })
        })?;
        let outputs = parse_params(doc.get("outputs"), |id, body| {
            Ok(WorkflowOutput {
                id: id.to_string(),
                typ: CwlType::parse(body.get("type").unwrap_or(&Value::Null))
                    .map_err(|e| format!("workflow output {id:?}: {e}"))?,
                output_source: body
                    .get("outputSource")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("workflow output {id:?} missing outputSource"))?
                    .to_string(),
            })
        })?;

        let mut steps = Vec::new();
        match doc.get("steps") {
            None | Some(Value::Null) => {}
            Some(Value::Map(m)) => {
                for (id, body) in m.iter() {
                    steps.push(parse_step(id, body)?);
                }
            }
            Some(Value::Seq(items)) => {
                for item in items {
                    let id = item
                        .get("id")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("step entry missing id: {item:?}"))?;
                    steps.push(parse_step(id, item)?);
                }
            }
            Some(other) => return Err(format!("steps must be a map or list, got {other:?}")),
        }

        Ok(Self {
            id: doc.get("id").and_then(Value::as_str).map(str::to_string),
            cwl_version: doc
                .get("cwlVersion")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            doc: doc.get("doc").and_then(Value::as_str).map(str::to_string),
            inputs,
            outputs,
            steps,
            requirements: {
                let mut r = Requirements::parse(doc.get("requirements").unwrap_or(&Value::Null))?;
                if let Some(hints) = doc.get("hints") {
                    r.merge_from(&Requirements::parse(hints)?);
                }
                r
            },
        })
    }

    /// Find a step by id.
    pub(crate) fn step(&self, id: &str) -> Option<&Step> {
        self.steps.iter().find(|s| s.id == id)
    }

    /// Topological order of step indices (Kahn's algorithm); errors on
    /// cycles or references to unknown steps.
    pub fn topo_order(&self) -> Result<Vec<usize>, String> {
        let index: HashMap<&str, usize> = self
            .steps
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id.as_str(), i))
            .collect();
        let mut indegree = vec![0usize; self.steps.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); self.steps.len()];
        for (i, step) in self.steps.iter().enumerate() {
            let mut seen = HashSet::new();
            for up in step.upstream_steps() {
                let &j = index
                    .get(up)
                    .ok_or_else(|| format!("step {:?} references unknown step {up:?}", step.id))?;
                if seen.insert(j) {
                    indegree[i] += 1;
                    dependents[j].push(i);
                }
            }
        }
        let mut queue: Vec<usize> = (0..self.steps.len())
            .filter(|&i| indegree[i] == 0)
            .collect();
        let mut order = Vec::with_capacity(self.steps.len());
        while let Some(i) = queue.pop() {
            order.push(i);
            for &d in &dependents[i] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push(d);
                }
            }
        }
        if order.len() != self.steps.len() {
            return Err("workflow step graph contains a cycle".to_string());
        }
        Ok(order)
    }
}

fn parse_step(id: &str, body: &Value) -> Result<Step, String> {
    let run = match body.get("run") {
        Some(Value::Str(path)) => RunRef::Path(path.clone()),
        Some(inline @ Value::Map(_)) => RunRef::Inline(Box::new(inline.clone())),
        other => return Err(format!("step {id:?} has invalid run: {other:?}")),
    };
    let mut inputs = Vec::new();
    match body.get("in") {
        None | Some(Value::Null) => {}
        Some(Value::Map(m)) => {
            for (iid, ibody) in m.iter() {
                inputs.push(parse_step_input(iid, ibody));
            }
        }
        Some(Value::Seq(items)) => {
            for item in items {
                let iid = item
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("step {id:?} input entry missing id"))?;
                inputs.push(parse_step_input(iid, item));
            }
        }
        Some(other) => {
            return Err(format!(
                "step {id:?} 'in' must be a map or list, got {other:?}"
            ))
        }
    }
    let out = match body.get("out") {
        None | Some(Value::Null) => Vec::new(),
        Some(Value::Seq(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                Value::Map(m) => m
                    .get("id")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("step {id:?} out entry missing id")),
                other => Err(format!("step {id:?} out entry must be a string: {other:?}")),
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(other) => return Err(format!("step {id:?} 'out' must be a list, got {other:?}")),
    };
    let when = body.get("when").and_then(Value::as_str).map(str::to_string);
    let scatter = match body.get("scatter") {
        None | Some(Value::Null) => Vec::new(),
        Some(Value::Str(s)) => vec![s.clone()],
        Some(Value::Seq(items)) => items
            .iter()
            .filter_map(Value::as_str)
            .map(str::to_string)
            .collect(),
        Some(other) => {
            return Err(format!(
                "step {id:?} scatter must be string or list: {other:?}"
            ))
        }
    };
    Ok(Step {
        id: id.to_string(),
        run,
        inputs,
        out,
        scatter,
        when,
    })
}

fn parse_step_input(id: &str, body: &Value) -> StepInput {
    match body {
        // Shorthand: `size: size` wires from a workflow input / step output.
        Value::Str(source) => StepInput {
            id: id.to_string(),
            source: Some(source.clone()),
            sources: vec![source.clone()],
            link_merge: None,
            default: None,
            value_from: None,
        },
        Value::Map(m) => {
            // `source:` is a single reference or a list to gather.
            let (source, sources) = match m.get("source") {
                Some(Value::Str(s)) => (Some(s.clone()), vec![s.clone()]),
                Some(Value::Seq(items)) => (
                    None,
                    items
                        .iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect(),
                ),
                _ => (None, Vec::new()),
            };
            StepInput {
                id: id.to_string(),
                source,
                sources,
                link_merge: m
                    .get("linkMerge")
                    .and_then(Value::as_str)
                    .map(str::to_string),
                default: m.get("default").cloned(),
                value_from: m
                    .get("valueFrom")
                    .and_then(Value::as_str)
                    .map(str::to_string),
            }
        }
        // A literal (including null) acts as a default value.
        other => StepInput {
            id: id.to_string(),
            source: None,
            sources: Vec::new(),
            link_merge: None,
            default: Some(other.clone()),
            value_from: None,
        },
    }
}

#[cfg(test)]
pub(crate) const IMAGE_WORKFLOW_CWL: &str = r#"
cwlVersion: v1.2
class: Workflow
doc: This CWL workflow processes images - resizing, filtering, and blurring
requirements:
  - class: StepInputExpressionRequirement
inputs:
  input_image:
    type: File
    doc: The original image to be processed
  size:
    type: int
    doc: The target sizeXsize for resizing
  sepia:
    type: boolean
    doc: Whether to apply the filter
  radius:
    type: int
    doc: The amount of blur to apply
outputs:
  final_output:
    type: File
    outputSource: blur_image/output_image
steps:
  resize_image:
    run: resize_image.cwl
    in:
      input_image: input_image
      size: size
      output_image:
        valueFrom: "resized.rimg"
    out: [output_image]
  filter_image:
    run: filter_image.cwl
    in:
      input_image: resize_image/output_image
      sepia: sepia
      output_image:
        valueFrom: "filtered.rimg"
    out: [output_image]
  blur_image:
    run: blur_image.cwl
    in:
      input_image: filter_image/output_image
      radius: radius
      output_image:
        valueFrom: "blurred.rimg"
    out: [output_image]
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::parse_str;

    fn image_workflow() -> Workflow {
        Workflow::parse(&parse_str(IMAGE_WORKFLOW_CWL).unwrap()).unwrap()
    }

    #[test]
    fn parse_listing3_image_workflow() {
        let wf = image_workflow();
        assert_eq!(wf.inputs.len(), 4);
        assert_eq!(wf.outputs.len(), 1);
        assert_eq!(wf.outputs[0].output_source, "blur_image/output_image");
        assert_eq!(wf.steps.len(), 3);
        assert!(wf.requirements.step_input_expression);

        let resize = wf.step("resize_image").unwrap();
        assert_eq!(resize.run, RunRef::Path("resize_image.cwl".into()));
        assert_eq!(resize.out, vec!["output_image"]);
        let out_img = resize
            .inputs
            .iter()
            .find(|i| i.id == "output_image")
            .unwrap();
        assert_eq!(out_img.value_from.as_deref(), Some("resized.rimg"));

        let filter = wf.step("filter_image").unwrap();
        assert_eq!(
            filter
                .inputs
                .iter()
                .find(|i| i.id == "input_image")
                .unwrap()
                .source
                .as_deref(),
            Some("resize_image/output_image")
        );
    }

    #[test]
    fn upstream_and_topo_order() {
        let wf = image_workflow();
        assert_eq!(
            wf.step("blur_image").unwrap().upstream_steps(),
            vec!["filter_image"]
        );
        let order = wf.topo_order().unwrap();
        let pos = |id: &str| order.iter().position(|&i| wf.steps[i].id == id).unwrap();
        assert!(pos("resize_image") < pos("filter_image"));
        assert!(pos("filter_image") < pos("blur_image"));
    }

    #[test]
    fn cycle_detected() {
        let doc = parse_str(
            r#"
cwlVersion: v1.2
class: Workflow
inputs: {}
outputs: {}
steps:
  a:
    run: a.cwl
    in:
      x: b/out
    out: [out]
  b:
    run: b.cwl
    in:
      x: a/out
    out: [out]
"#,
        )
        .unwrap();
        let wf = Workflow::parse(&doc).unwrap();
        assert!(wf.topo_order().unwrap_err().contains("cycle"));
    }

    #[test]
    fn unknown_upstream_step() {
        let doc = parse_str(
            "cwlVersion: v1.2\nclass: Workflow\ninputs: {}\noutputs: {}\nsteps:\n  a:\n    run: a.cwl\n    in:\n      x: ghost/out\n    out: []\n",
        )
        .unwrap();
        let wf = Workflow::parse(&doc).unwrap();
        assert!(wf.topo_order().unwrap_err().contains("ghost"));
    }

    #[test]
    fn scatter_forms() {
        let doc = parse_str(
            r#"
cwlVersion: v1.2
class: Workflow
requirements:
  - class: ScatterFeatureRequirement
  - class: SubworkflowFeatureRequirement
inputs:
  images: File[]
outputs: {}
steps:
  per_image:
    run: pipeline.cwl
    scatter: image
    in:
      image: images
    out: [result]
"#,
        )
        .unwrap();
        let wf = Workflow::parse(&doc).unwrap();
        assert!(wf.requirements.scatter);
        assert!(wf.requirements.subworkflow);
        assert_eq!(wf.step("per_image").unwrap().scatter, vec!["image"]);
    }

    #[test]
    fn when_condition_parsed() {
        let doc = parse_str(
            "cwlVersion: v1.2\nclass: Workflow\ninputs:\n  r: int\noutputs: {}\nsteps:\n  s:\n    run: t.cwl\n    when: $(inputs.r > 0)\n    in:\n      r: r\n    out: [o]\n",
        )
        .unwrap();
        let wf = Workflow::parse(&doc).unwrap();
        assert_eq!(
            wf.step("s").unwrap().when.as_deref(),
            Some("$(inputs.r > 0)")
        );
    }

    #[test]
    fn inline_run_document() {
        let doc = parse_str(
            r#"
cwlVersion: v1.2
class: Workflow
inputs: {}
outputs: {}
steps:
  embedded:
    run:
      class: CommandLineTool
      baseCommand: ls
      inputs: {}
      outputs: {}
    in: {}
    out: []
"#,
        )
        .unwrap();
        let wf = Workflow::parse(&doc).unwrap();
        assert!(matches!(
            wf.step("embedded").unwrap().run,
            RunRef::Inline(_)
        ));
    }

    #[test]
    fn literal_step_input_default() {
        let doc = parse_str(
            "cwlVersion: v1.2\nclass: Workflow\ninputs: {}\noutputs: {}\nsteps:\n  s:\n    run: t.cwl\n    in:\n      n: 42\n    out: []\n",
        )
        .unwrap();
        let wf = Workflow::parse(&doc).unwrap();
        let n = &wf.step("s").unwrap().inputs[0];
        assert_eq!(n.default, Some(Value::Int(42)));
        assert!(n.source.is_none());
    }

    #[test]
    fn missing_output_source_rejected() {
        let doc = parse_str(
            "cwlVersion: v1.2\nclass: Workflow\ninputs: {}\noutputs:\n  o:\n    type: File\nsteps: {}\n",
        )
        .unwrap();
        assert!(Workflow::parse(&doc).is_err());
    }
}
