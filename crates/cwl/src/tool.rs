//! The `CommandLineTool` model (paper §II-A, Listing 1).

use crate::requirements::Requirements;
use crate::types::CwlType;
use yamlite::Value;

/// How an input is bound onto the command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InputBinding {
    /// Sort position (defaults to 0; ties break on declaration order).
    pub position: i64,
    /// Prefix flag (e.g. `--size`).
    pub prefix: Option<String>,
    /// Whether prefix and value are separate argv entries (default true).
    pub separate: bool,
    /// Join array items with this separator instead of repeating.
    pub item_separator: Option<String>,
    /// Expression transforming the value before binding (`self` = value).
    pub value_from: Option<String>,
}

impl InputBinding {
    /// Parse from a document node.
    pub(crate) fn parse(v: &Value) -> Result<Self, String> {
        let m = v
            .as_map()
            .ok_or_else(|| format!("inputBinding must be a map, got {v:?}"))?;
        Ok(Self {
            position: m.get("position").and_then(Value::as_int).unwrap_or(0),
            prefix: m.get("prefix").and_then(Value::as_str).map(str::to_string),
            separate: m.get("separate").and_then(Value::as_bool).unwrap_or(true),
            item_separator: m
                .get("itemSeparator")
                .and_then(Value::as_str)
                .map(str::to_string),
            value_from: m
                .get("valueFrom")
                .and_then(Value::as_str)
                .map(str::to_string),
        })
    }
}

/// One declared input parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct InputParam {
    /// Parameter id (the keyword argument name in the Parsl bridge).
    pub id: String,
    /// Declared type.
    pub typ: CwlType,
    /// Default value.
    pub default: Option<Value>,
    /// Command-line binding (inputs without one are not bound).
    pub binding: Option<InputBinding>,
    /// Documentation string.
    pub doc: Option<String>,
    /// The paper's `validate:` extension (§V, Listing 6): an expression
    /// evaluated before execution; a raised exception aborts the run.
    pub validate: Option<String>,
}

/// One declared output parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputParam {
    /// Parameter id.
    pub id: String,
    /// Declared type (`stdout`/`stderr` shorthands capture streams).
    pub typ: CwlType,
    /// `outputBinding.glob` — the file (or expression) to collect.
    pub glob: Option<String>,
    /// Documentation string.
    pub(crate) doc: Option<String>,
}

/// A literal or bound extra argument (`arguments:` section).
#[derive(Debug, Clone, PartialEq)]
pub struct Argument {
    /// The value: a literal or an expression string.
    pub value: Value,
    /// Sort position.
    pub(crate) position: i64,
    /// Optional prefix.
    pub(crate) prefix: Option<String>,
    /// Whether prefix and value are separate argv entries.
    pub(crate) separate: bool,
}

/// A parsed `class: CommandLineTool` document.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandLineTool {
    /// Optional tool id.
    pub id: Option<String>,
    /// `cwlVersion` as written.
    pub cwl_version: String,
    /// Documentation.
    pub doc: Option<String>,
    /// The executable (possibly multi-word, e.g. `[imgtool, resize]`).
    pub base_command: Vec<String>,
    /// Extra arguments.
    pub arguments: Vec<Argument>,
    /// Declared inputs, in document order.
    pub inputs: Vec<InputParam>,
    /// Declared outputs, in document order.
    pub outputs: Vec<OutputParam>,
    /// Redirect stdout to this file name (may be an expression).
    pub stdout: Option<String>,
    /// Redirect stderr to this file name (may be an expression).
    pub stderr: Option<String>,
    /// Parsed requirements + hints.
    pub requirements: Requirements,
}

impl CommandLineTool {
    /// Parse a `class: CommandLineTool` document.
    pub fn parse(doc: &Value) -> Result<Self, String> {
        if doc.get("class").and_then(Value::as_str) != Some("CommandLineTool") {
            return Err(format!(
                "expected class: CommandLineTool, got {:?}",
                doc.get("class")
            ));
        }
        let cwl_version = doc
            .get("cwlVersion")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();

        let base_command = match doc.get("baseCommand") {
            Some(Value::Str(s)) => vec![s.clone()],
            Some(Value::Seq(items)) => items
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("baseCommand entry must be a string: {v:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
            other => return Err(format!("bad baseCommand {other:?}")),
        };

        let mut arguments = Vec::new();
        if let Some(args) = doc.get("arguments") {
            let items = args
                .as_seq()
                .ok_or_else(|| format!("arguments must be a list, got {args:?}"))?;
            for (i, item) in items.iter().enumerate() {
                arguments.push(match item {
                    Value::Map(m) => Argument {
                        value: m.get("valueFrom").cloned().unwrap_or(Value::Null),
                        position: m.get("position").and_then(Value::as_int).unwrap_or(0),
                        prefix: m.get("prefix").and_then(Value::as_str).map(str::to_string),
                        separate: m.get("separate").and_then(Value::as_bool).unwrap_or(true),
                    },
                    literal => Argument {
                        value: literal.clone(),
                        position: 0,
                        prefix: None,
                        separate: true,
                    },
                });
                let _ = i;
            }
        }

        let inputs = parse_params(doc.get("inputs"), |id, body| {
            let typ = CwlType::parse(body.get("type").unwrap_or(&Value::Null))
                .map_err(|e| format!("input {id:?}: {e}"))?;
            Ok(InputParam {
                id: id.to_string(),
                typ,
                default: body.get("default").cloned(),
                binding: match body.get("inputBinding") {
                    Some(b) => {
                        Some(InputBinding::parse(b).map_err(|e| format!("input {id:?}: {e}"))?)
                    }
                    None => None,
                },
                doc: body.get("doc").and_then(Value::as_str).map(str::to_string),
                validate: body
                    .get("validate")
                    .and_then(Value::as_str)
                    .map(str::to_string),
            })
        })?;

        let outputs = parse_params(doc.get("outputs"), |id, body| {
            let typ = CwlType::parse(body.get("type").unwrap_or(&Value::Null))
                .map_err(|e| format!("output {id:?}: {e}"))?;
            let glob = body
                .get("outputBinding")
                .and_then(|b| b.get("glob"))
                .and_then(Value::as_str)
                .map(str::to_string);
            Ok(OutputParam {
                id: id.to_string(),
                typ,
                glob,
                doc: body.get("doc").and_then(Value::as_str).map(str::to_string),
            })
        })?;

        Ok(Self {
            id: doc.get("id").and_then(Value::as_str).map(str::to_string),
            cwl_version,
            doc: doc.get("doc").and_then(Value::as_str).map(str::to_string),
            base_command,
            arguments,
            inputs,
            outputs,
            stdout: doc
                .get("stdout")
                .and_then(Value::as_str)
                .map(str::to_string),
            stderr: doc
                .get("stderr")
                .and_then(Value::as_str)
                .map(str::to_string),
            requirements: {
                let mut r = Requirements::parse(doc.get("requirements").unwrap_or(&Value::Null))?;
                if let Some(hints) = doc.get("hints") {
                    let h = Requirements::parse(hints)?;
                    r.merge_from(&h);
                }
                r
            },
        })
    }

    /// Look up an input parameter by id.
    pub fn input(&self, id: &str) -> Option<&InputParam> {
        self.inputs.iter().find(|p| p.id == id)
    }
}

/// Parse a CWL parameter section, which may be a map (`id: {..}` /
/// `id: type-string`) or a list of `{id: ..., ...}` maps.
pub(crate) fn parse_params<T>(
    section: Option<&Value>,
    mut build: impl FnMut(&str, &Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let Some(section) = section else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    match section {
        Value::Null => {}
        Value::Map(m) => {
            for (id, body) in m.iter() {
                // Shorthand: `id: string` means `id: {type: string}`.
                let normalized;
                let body = if matches!(body, Value::Str(_)) {
                    normalized = yamlite::vmap! {"type" => body.clone()};
                    &normalized
                } else {
                    body
                };
                out.push(build(id, body)?);
            }
        }
        Value::Seq(items) => {
            for item in items {
                let id = item
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("parameter entry missing id: {item:?}"))?;
                out.push(build(id, item)?);
            }
        }
        other => {
            return Err(format!(
                "parameter section must be map or list, got {other:?}"
            ))
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlite::parse_str;

    /// The paper's Listing 1: the echo tool.
    pub(crate) const ECHO_CWL: &str = r#"
cwlVersion: v1.2
class: CommandLineTool
baseCommand: echo
inputs:
  message:
    type: string
    default: "Hello World"
    inputBinding:
      position: 1
outputs:
  output:
    type: stdout
stdout: hello.txt
"#;

    #[test]
    fn parse_listing1_echo() {
        let doc = parse_str(ECHO_CWL).unwrap();
        let tool = CommandLineTool::parse(&doc).unwrap();
        assert_eq!(tool.cwl_version, "v1.2");
        assert_eq!(tool.base_command, vec!["echo"]);
        assert_eq!(tool.inputs.len(), 1);
        let msg = &tool.inputs[0];
        assert_eq!(msg.id, "message");
        assert_eq!(msg.typ, CwlType::Str);
        assert_eq!(msg.default, Some(Value::str("Hello World")));
        assert_eq!(msg.binding.as_ref().unwrap().position, 1);
        assert_eq!(tool.outputs[0].typ, CwlType::Stdout);
        assert_eq!(tool.stdout.as_deref(), Some("hello.txt"));
    }

    #[test]
    fn parse_multiword_base_command_and_prefixes() {
        let doc = parse_str(
            r#"
cwlVersion: v1.2
class: CommandLineTool
baseCommand: [imgtool, resize]
inputs:
  input_image:
    type: File
    inputBinding:
      position: 1
  size:
    type: int
    inputBinding:
      position: 3
      prefix: --size
  output_image:
    type: string
    inputBinding:
      position: 2
outputs:
  resized:
    type: File
    outputBinding:
      glob: $(inputs.output_image)
"#,
        )
        .unwrap();
        let tool = CommandLineTool::parse(&doc).unwrap();
        assert_eq!(tool.base_command, vec!["imgtool", "resize"]);
        assert_eq!(
            tool.input("size")
                .unwrap()
                .binding
                .as_ref()
                .unwrap()
                .prefix
                .as_deref(),
            Some("--size")
        );
        assert_eq!(
            tool.outputs
                .iter()
                .find(|p| p.id == "resized")
                .unwrap()
                .glob
                .as_deref(),
            Some("$(inputs.output_image)")
        );
    }

    #[test]
    fn parse_list_style_params() {
        let doc = parse_str(
            r#"
cwlVersion: v1.2
class: CommandLineTool
baseCommand: cat
inputs:
  - id: data
    type: File
    inputBinding: {position: 1}
outputs:
  - id: out
    type: stdout
"#,
        )
        .unwrap();
        let tool = CommandLineTool::parse(&doc).unwrap();
        assert_eq!(tool.inputs[0].id, "data");
        assert_eq!(tool.outputs[0].id, "out");
    }

    #[test]
    fn parse_type_shorthand() {
        let doc = parse_str(
            "cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: x\ninputs:\n  n: int\noutputs: {}\n",
        )
        .unwrap();
        let tool = CommandLineTool::parse(&doc).unwrap();
        assert_eq!(tool.inputs[0].typ, CwlType::Int);
        assert!(tool.inputs[0].binding.is_none());
    }

    #[test]
    fn parse_arguments_literal_and_bound() {
        let doc = parse_str(
            r#"
cwlVersion: v1.2
class: CommandLineTool
baseCommand: tar
arguments:
  - -czf
  - position: 5
    prefix: --file
    valueFrom: $(inputs.name)
inputs: {}
outputs: {}
"#,
        )
        .unwrap();
        let tool = CommandLineTool::parse(&doc).unwrap();
        assert_eq!(tool.arguments.len(), 2);
        assert_eq!(tool.arguments[0].value, Value::str("-czf"));
        assert_eq!(tool.arguments[1].position, 5);
        assert_eq!(tool.arguments[1].prefix.as_deref(), Some("--file"));
    }

    #[test]
    fn parse_validate_extension() {
        let doc = parse_str(
            r#"
cwlVersion: v1.2
class: CommandLineTool
requirements:
  - class: InlinePythonRequirement
    expressionLib: |
      def valid_file(file, ext):
          if not file.lower().endswith(ext):
              raise Exception(f"Invalid file. Expected '{ext}'")
baseCommand: cat
inputs:
  data_file:
    type: File
    validate: |
      f"{valid_file($(inputs.data_file.basename), '.csv')}"
    inputBinding:
      position: 1
outputs:
  validated_output:
    type: stdout
"#,
        )
        .unwrap();
        let tool = CommandLineTool::parse(&doc).unwrap();
        assert!(tool.requirements.inline_python);
        let v = tool.input("data_file").unwrap().validate.as_ref().unwrap();
        assert!(v.contains("valid_file"));
    }

    #[test]
    fn wrong_class_rejected() {
        let doc = parse_str("class: Workflow\n").unwrap();
        assert!(CommandLineTool::parse(&doc).is_err());
    }

    #[test]
    fn missing_param_id_rejected() {
        let doc = parse_str(
            "cwlVersion: v1.2\nclass: CommandLineTool\nbaseCommand: x\ninputs:\n  - type: int\noutputs: {}\n",
        )
        .unwrap();
        assert!(CommandLineTool::parse(&doc).is_err());
    }
}
