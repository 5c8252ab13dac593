//! Micro-benchmarks of the substrates: YAML parsing, command-line binding,
//! batch-scheduler operations, image kernels, and future plumbing.

use criterion::{criterion_group, criterion_main, Criterion};
use cwl::CommandLineTool;
use gridsim::{BatchScheduler, ClusterSpec, JobRequest, SchedulerConfig};
use parsl::future::promise_pair;
use parsl::TaskId;
use yamlite::Value;

fn bench_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro");
    group.sample_size(30);

    let pipeline_text =
        std::fs::read_to_string(bench::fixtures_dir().join("image_pipeline.cwl")).unwrap();
    group.bench_function("yamlite_parse_workflow", |b| {
        b.iter(|| yamlite::parse_str(&pipeline_text).unwrap());
    });

    let doc = yamlite::parse_str(&pipeline_text).unwrap();
    group.bench_function("workflow_parse_model", |b| {
        b.iter(|| cwl::Workflow::parse(&doc).unwrap());
    });

    group.bench_function("analyze_value", |b| {
        b.iter(|| cwl::analyze_value(&doc));
    });

    let tool_doc = yamlite::parse_file(bench::fixtures_dir().join("resize_image.cwl")).unwrap();
    let tool = CommandLineTool::parse(&tool_doc).unwrap();
    let inputs = cwl::input::resolve_inputs(
        &tool.inputs,
        match &yamlite::vmap! {
            "input_image" => "/data/in.rimg",
            "output_image" => "out.rimg",
            "size" => 512i64,
        } {
            Value::Map(m) => m,
            _ => unreachable!(),
        },
    )
    .unwrap();
    let engine = expr::JsEngine::in_process();
    group.bench_function("build_command_line", |b| {
        b.iter(|| cwl::build_command(&tool, &inputs, &engine).unwrap());
    });

    group.bench_function("scheduler_submit_release", |b| {
        let sched = BatchScheduler::new(ClusterSpec::small(4, 8), SchedulerConfig::immediate());
        b.iter(|| {
            let j = sched.submit(JobRequest::nodes(2, "micro")).unwrap();
            let nodes = j.wait_running(std::time::Duration::from_secs(1)).unwrap();
            assert_eq!(nodes.len(), 2);
            j.release().unwrap();
        });
    });

    group.bench_function("future_complete_and_read", |b| {
        b.iter(|| {
            let (fut, promise) = promise_pair(TaskId(1));
            promise.complete(Ok(Value::Int(1)));
            fut.result().unwrap()
        });
    });

    let img = imaging::gradient(128, 128, 1);
    group.bench_function("imaging_resize_128_to_64", |b| {
        b.iter(|| imaging::resize_bilinear(&img, 64, 64));
    });
    group.bench_function("imaging_blur_r2_128", |b| {
        b.iter(|| imaging::box_blur(&img, 2));
    });

    group.finish();
}

criterion_group!(benches, bench_micro);
criterion_main!(benches);
