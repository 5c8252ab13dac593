//! CWL `requirements`/`hints` parsing — including the paper's
//! `InlinePythonRequirement` extension (§V).

use yamlite::Value;

/// A `ResourceRequirement` subset.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct ResourceRequirement {
    pub(crate) cores_min: Option<i64>,
    pub(crate) ram_min: Option<i64>,
    pub(crate) cores_max: Option<i64>,
    pub(crate) ram_max: Option<i64>,
}

/// One `InitialWorkDirRequirement` listing entry. The runner does not
/// materialize these (the class stays on the ignored list, W105), but the
/// effect analysis reads them: a `writable: true` entry referencing a
/// staged input is a shared-object mutation hazard, and literal entry
/// names join the step's static write-set.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct WorkdirEntry {
    /// `entryname:` — the file name created in the working directory.
    pub(crate) entryname: Option<String>,
    /// `entry:` — the content (a literal or an expression like
    /// `$(inputs.x)`).
    pub(crate) entry: Option<String>,
    /// `writable: true` requests an in-place mutable copy.
    pub(crate) writable: bool,
}

/// Parsed requirements of a tool or workflow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Requirements {
    /// `InlineJavascriptRequirement` present; carries any `expressionLib`
    /// source blocks.
    pub(crate) inline_javascript: bool,
    /// JS expression library sources.
    pub js_expression_lib: Vec<String>,
    /// The paper's `InlinePythonRequirement`; carries `expressionLib`
    /// Python source blocks.
    pub inline_python: bool,
    /// Python expression library sources.
    pub py_expression_lib: Vec<String>,
    /// `EnvVarRequirement` entries.
    pub(crate) env_vars: Vec<(String, String)>,
    /// `ResourceRequirement`.
    pub(crate) resources: Option<ResourceRequirement>,
    /// `StepInputExpressionRequirement` (allows `valueFrom` on step inputs).
    pub(crate) step_input_expression: bool,
    /// `ScatterFeatureRequirement`.
    pub(crate) scatter: bool,
    /// `SubworkflowFeatureRequirement`.
    pub subworkflow: bool,
    /// `InitialWorkDirRequirement` listing entries (parsed for the effect
    /// analysis even though the class itself is on the ignored list).
    pub(crate) initial_workdir: Vec<WorkdirEntry>,
    /// Requirement classes we recognized but deliberately ignore
    /// (e.g. DockerRequirement — containers are out of scope; recorded so
    /// validation can warn).
    pub(crate) ignored: Vec<String>,
    /// Requirement classes we did not recognize at all.
    pub(crate) unknown: Vec<String>,
}

impl Requirements {
    /// Parse the `requirements` (or `hints`) section: either a sequence of
    /// `{class: ...}` maps or a map keyed by class name.
    pub fn parse(v: &Value) -> Result<Self, String> {
        let mut reqs = Requirements::default();
        match v {
            Value::Null => {}
            Value::Seq(items) => {
                for item in items {
                    let class = item
                        .get("class")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("requirement entry missing class: {item:?}"))?;
                    reqs.apply(class, item)?;
                }
            }
            Value::Map(m) => {
                for (class, body) in m.iter() {
                    reqs.apply(class, body)?;
                }
            }
            other => return Err(format!("requirements must be a list or map, got {other:?}")),
        }
        Ok(reqs)
    }

    fn apply(&mut self, class: &str, body: &Value) -> Result<(), String> {
        match class {
            "InlineJavascriptRequirement" => {
                self.inline_javascript = true;
                self.js_expression_lib.extend(expression_lib(body));
            }
            "InlinePythonRequirement" => {
                self.inline_python = true;
                self.py_expression_lib.extend(expression_lib(body));
            }
            "EnvVarRequirement" => {
                let def = body.get("envDef").unwrap_or(&Value::Null);
                match def {
                    Value::Map(m) => {
                        for (k, v) in m.iter() {
                            self.env_vars.push((k.to_string(), v.to_display_string()));
                        }
                    }
                    Value::Seq(items) => {
                        for item in items {
                            let name = item
                                .get("envName")
                                .and_then(Value::as_str)
                                .ok_or("envDef entry missing envName")?;
                            let value = item.get("envValue").cloned().unwrap_or_default();
                            self.env_vars
                                .push((name.to_string(), value.to_display_string()));
                        }
                    }
                    Value::Null => return Err("EnvVarRequirement missing envDef".to_string()),
                    other => return Err(format!("bad envDef {other:?}")),
                }
            }
            "ResourceRequirement" => {
                self.resources = Some(ResourceRequirement {
                    cores_min: body.get("coresMin").and_then(Value::as_int),
                    ram_min: body.get("ramMin").and_then(Value::as_int),
                    cores_max: body.get("coresMax").and_then(Value::as_int),
                    ram_max: body.get("ramMax").and_then(Value::as_int),
                });
            }
            "StepInputExpressionRequirement" => self.step_input_expression = true,
            "ScatterFeatureRequirement" => self.scatter = true,
            "SubworkflowFeatureRequirement" => self.subworkflow = true,
            // Source lists and `linkMerge` are always available.
            "MultipleInputFeatureRequirement" => {}
            "InitialWorkDirRequirement" => {
                // Not materialized by the runner (W105), but the listing
                // feeds the effect analysis.
                if let Some(Value::Seq(items)) = body.get("listing") {
                    for item in items {
                        self.initial_workdir.push(WorkdirEntry {
                            entryname: item
                                .get("entryname")
                                .and_then(Value::as_str)
                                .map(str::to_string),
                            entry: item.get("entry").map(Value::to_display_string),
                            writable: item
                                .get("writable")
                                .and_then(Value::as_bool)
                                .unwrap_or(false),
                        });
                    }
                }
                self.ignored.push(class.to_string());
            }
            "DockerRequirement"
            | "ShellCommandRequirement"
            | "SoftwareRequirement"
            | "NetworkAccess"
            | "WorkReuse" => {
                self.ignored.push(class.to_string());
            }
            other => self.unknown.push(other.to_string()),
        }
        Ok(())
    }

    /// Merge another requirement set in (workflow-level requirements apply
    /// to steps unless overridden).
    pub(crate) fn merge_from(&mut self, outer: &Requirements) {
        self.inline_javascript |= outer.inline_javascript;
        self.inline_python |= outer.inline_python;
        for lib in &outer.js_expression_lib {
            if !self.js_expression_lib.contains(lib) {
                self.js_expression_lib.push(lib.clone());
            }
        }
        for lib in &outer.py_expression_lib {
            if !self.py_expression_lib.contains(lib) {
                self.py_expression_lib.push(lib.clone());
            }
        }
        self.step_input_expression |= outer.step_input_expression;
        self.scatter |= outer.scatter;
        self.subworkflow |= outer.subworkflow;
    }
}

/// Pull `expressionLib` entries out of a requirement body: a single source
/// string or a list of source strings.
fn expression_lib(body: &Value) -> Vec<String> {
    match body.get("expressionLib") {
        Some(Value::Str(s)) => vec![s.clone()],
        Some(Value::Seq(items)) => items
            .iter()
            .filter_map(Value::as_str)
            .map(str::to_string)
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::parse_str;

    #[test]
    fn parse_list_form() {
        let doc = parse_str(
            "requirements:\n  - class: StepInputExpressionRequirement\n  - class: ScatterFeatureRequirement\n",
        )
        .unwrap();
        let r = Requirements::parse(&doc["requirements"]).unwrap();
        assert!(r.step_input_expression);
        assert!(r.scatter);
        assert!(!r.inline_javascript);
    }

    #[test]
    fn parse_map_form() {
        let doc = parse_str("requirements:\n  InlineJavascriptRequirement: {}\n").unwrap();
        let r = Requirements::parse(&doc["requirements"]).unwrap();
        assert!(r.inline_javascript);
    }

    #[test]
    fn parse_python_expression_lib() {
        let doc = parse_str(
            "requirements:\n  - class: InlinePythonRequirement\n    expressionLib: |\n      def f(x):\n          return x\n",
        )
        .unwrap();
        let r = Requirements::parse(&doc["requirements"]).unwrap();
        assert!(r.inline_python);
        assert_eq!(r.py_expression_lib.len(), 1);
        assert!(r.py_expression_lib[0].contains("def f(x):"));
    }

    #[test]
    fn parse_env_vars_both_shapes() {
        let doc = parse_str(
            "requirements:\n  - class: EnvVarRequirement\n    envDef:\n      LC_ALL: C\n      THREADS: 4\n",
        )
        .unwrap();
        let r = Requirements::parse(&doc["requirements"]).unwrap();
        assert!(r
            .env_vars
            .contains(&("LC_ALL".to_string(), "C".to_string())));
        assert!(r
            .env_vars
            .contains(&("THREADS".to_string(), "4".to_string())));

        let doc = parse_str(
            "requirements:\n  - class: EnvVarRequirement\n    envDef:\n      - envName: A\n        envValue: b\n",
        )
        .unwrap();
        let r = Requirements::parse(&doc["requirements"]).unwrap();
        assert_eq!(r.env_vars, vec![("A".to_string(), "b".to_string())]);
    }

    #[test]
    fn parse_resources() {
        let doc = parse_str(
            "requirements:\n  - class: ResourceRequirement\n    coresMin: 4\n    ramMin: 2048\n",
        )
        .unwrap();
        let r = Requirements::parse(&doc["requirements"]).unwrap();
        let res = r.resources.unwrap();
        assert_eq!(res.cores_min, Some(4));
        assert_eq!(res.ram_min, Some(2048));
    }

    #[test]
    fn parse_resource_bounds() {
        let doc = parse_str(
            "requirements:\n  - class: ResourceRequirement\n    coresMin: 4\n    coresMax: 8\n    ramMin: 1024\n    ramMax: 2048\n",
        )
        .unwrap();
        let res = Requirements::parse(&doc["requirements"])
            .unwrap()
            .resources
            .unwrap();
        assert_eq!(res.cores_max, Some(8));
        assert_eq!(res.ram_max, Some(2048));
    }

    #[test]
    fn parse_initial_workdir_listing() {
        let doc = parse_str(
            "requirements:\n  - class: InitialWorkDirRequirement\n    listing:\n      - entryname: settings.json\n        entry: '{}'\n      - entry: $(inputs.image)\n        writable: true\n",
        )
        .unwrap();
        let r = Requirements::parse(&doc["requirements"]).unwrap();
        // The class is still on the ignored list (the runner does not
        // materialize listings) ...
        assert_eq!(r.ignored, vec!["InitialWorkDirRequirement"]);
        // ... but the listing is captured for the effect analysis.
        assert_eq!(r.initial_workdir.len(), 2);
        assert_eq!(
            r.initial_workdir[0].entryname.as_deref(),
            Some("settings.json")
        );
        assert!(!r.initial_workdir[0].writable);
        assert_eq!(
            r.initial_workdir[1].entry.as_deref(),
            Some("$(inputs.image)")
        );
        assert!(r.initial_workdir[1].writable);
    }

    #[test]
    fn docker_is_ignored_not_unknown() {
        let doc = parse_str(
            "requirements:\n  - class: DockerRequirement\n    dockerPull: ubuntu\n  - class: MadeUpRequirement\n",
        )
        .unwrap();
        let r = Requirements::parse(&doc["requirements"]).unwrap();
        assert_eq!(r.ignored, vec!["DockerRequirement"]);
        assert_eq!(r.unknown, vec!["MadeUpRequirement"]);
    }

    #[test]
    fn merge_propagates_flags_and_libs() {
        let mut inner = Requirements::default();
        let outer = Requirements {
            inline_python: true,
            py_expression_lib: vec!["def g(): pass".to_string()],
            scatter: true,
            ..Default::default()
        };
        inner.merge_from(&outer);
        assert!(inner.inline_python);
        assert!(inner.scatter);
        assert_eq!(inner.py_expression_lib.len(), 1);
        // Merging twice does not duplicate libs.
        inner.merge_from(&outer);
        assert_eq!(inner.py_expression_lib.len(), 1);
    }

    #[test]
    fn missing_class_rejected() {
        let doc = parse_str("requirements:\n  - expressionLib: x\n").unwrap();
        assert!(Requirements::parse(&doc["requirements"]).is_err());
    }
}
