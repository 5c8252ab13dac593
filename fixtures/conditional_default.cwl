# The canonical way to consume a conditional step (CWL v1.2): the producer
# only runs for a non-empty message, and the consumer's `default` stands in
# for the null a skipped producer leaves behind.
cwlVersion: v1.2
class: Workflow
doc: Echo a message unless it is empty, then report the file that was written or, failing that, a stock notice.
requirements:
  - class: StepInputExpressionRequirement
  - class: InlineJavascriptRequirement
inputs:
  message:
    type: string
outputs:
  report:
    type: File
    outputSource: report/output
steps:
  produce:
    run: echo.cwl
    when: $(inputs.message != "")
    in:
      message: message
    out: [output]
  report:
    run: echo.cwl
    in:
      message:
        source: produce/output
        default: "nothing was produced"
        valueFrom: '$(typeof self == "string" ? self : "produced " + self.basename)'
    out: [output]
