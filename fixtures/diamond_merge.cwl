# The diamond of diamond.cwl with its join written the way CWL joins
# branches: one step input gathering both branch outputs (a `source` list
# merged per `linkMerge`) instead of one input per branch.
cwlVersion: v1.2
class: Workflow
doc: Echo a message, copy it along two branches, and join the branches through one merged input.
requirements:
  - class: MultipleInputFeatureRequirement
inputs:
  message:
    type: string
outputs:
  joined:
    type: File
    outputSource: join/output
steps:
  seed:
    run: echo.cwl
    in:
      message: message
    out: [output]
  left:
    run: copy_text.cwl
    in:
      text: seed/output
    out: [output]
  right:
    run: copy_text.cwl
    in:
      text: seed/output
    out: [output]
  join:
    run: cat_files.cwl
    in:
      files:
        source: [left/output, right/output]
        linkMerge: merge_flattened
    out: [output]
