# linkMerge building block: concatenate any number of text files, in order.
cwlVersion: v1.2
class: CommandLineTool
baseCommand: cat
inputs:
  files:
    type: File[]
    inputBinding:
      position: 1
outputs:
  output:
    type: stdout
stdout: joined.txt
