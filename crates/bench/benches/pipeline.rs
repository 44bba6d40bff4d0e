//! Per-stage throughput of the interoperability pipeline: WSDL
//! emission, parsing, WS-I analysis, artifact generation, compilation
//! and the SOAP message layer.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use wsinterop_compilers::{compiler_for, Compiler, Javac};
use wsinterop_core::doccache::DocCache;
use wsinterop_frameworks::client::{Axis1, ClientSubsystem, DotnetJs, MetroClient};
use wsinterop_frameworks::server::{Metro, ServerSubsystem, WcfDotNet};
use wsinterop_wsdl::de::from_xml_str;
use wsinterop_wsi::Analyzer;

fn wsdl_emission(c: &mut Criterion) {
    let catalog = Metro.catalog();
    let plain = catalog.get("java.util.GregorianCalendar").unwrap();
    let throwable = catalog.get("java.io.IOException").unwrap();
    let dataset = WcfDotNet
        .catalog()
        .get("System.Data.DataSet")
        .unwrap();

    let mut group = c.benchmark_group("wsdl_emission");
    group.bench_function("metro_plain_bean", |b| {
        b.iter(|| black_box(Metro.deploy(plain)))
    });
    group.bench_function("metro_throwable_bean", |b| {
        b.iter(|| black_box(Metro.deploy(throwable)))
    });
    group.bench_function("wcf_dataset_family", |b| {
        b.iter(|| black_box(WcfDotNet.deploy(dataset)))
    });
    group.finish();
}

fn wsdl_parse_and_wsi(c: &mut Criterion) {
    let entry = Metro.catalog().get("javax.swing.JTable").unwrap();
    let wsdl = Metro.deploy(entry).wsdl().unwrap().to_string();
    let defs = from_xml_str(&wsdl).unwrap();
    let analyzer = Analyzer::basic_profile_1_1();

    let mut group = c.benchmark_group("consume");
    group.bench_function("parse_wsdl", |b| {
        b.iter(|| black_box(from_xml_str(&wsdl).unwrap()))
    });
    group.bench_function("wsi_analyze", |b| {
        b.iter(|| black_box(analyzer.analyze(&defs)))
    });
    group.finish();
}

fn artifact_generation(c: &mut Criterion) {
    let entry = Metro.catalog().get("javax.swing.JTable").unwrap();
    let wsdl = Metro.deploy(entry).wsdl().unwrap().to_string();

    let mut group = c.benchmark_group("artifact_generation");
    group.bench_function("wsimport", |b| {
        b.iter(|| black_box(MetroClient.generate(&wsdl)))
    });
    group.bench_function("axis1_wsdl2java", |b| {
        b.iter(|| black_box(Axis1.generate(&wsdl)))
    });
    group.bench_function("wsdl_exe_jscript", |b| {
        b.iter(|| black_box(DotnetJs.generate(&wsdl)))
    });
    group.finish();
}

fn compilation(c: &mut Criterion) {
    let entry = Metro.catalog().get("javax.swing.JTable").unwrap();
    let wsdl = Metro.deploy(entry).wsdl().unwrap().to_string();
    let clean = MetroClient.generate(&wsdl).artifacts.unwrap();
    let faulty = {
        let throwable = Metro.catalog().get("java.io.IOException").unwrap();
        let wsdl = Metro.deploy(throwable).wsdl().unwrap().to_string();
        Axis1.generate(&wsdl).artifacts.unwrap()
    };

    let mut group = c.benchmark_group("compilation");
    group.bench_function("javac_clean_bundle", |b| {
        b.iter(|| black_box(Javac.compile(&clean)))
    });
    group.bench_function("javac_faulty_wrapper", |b| {
        b.iter(|| black_box(Javac.compile(&faulty)))
    });
    group.finish();
}

fn soap_messages(c: &mut Criterion) {
    let entry = Metro.catalog().get("java.lang.String").unwrap();
    let wsdl = Metro.deploy(entry).wsdl().unwrap().to_string();
    let defs = from_xml_str(&wsdl).unwrap();
    let request = wsinterop_wsdl::soap::request(&defs, "echo", "payload").unwrap();
    let request_xml =
        wsinterop_xml::writer::write_document(&request, &wsinterop_xml::WriteOptions::compact());

    let mut group = c.benchmark_group("soap");
    group.bench_function("build_request", |b| {
        b.iter(|| black_box(wsinterop_wsdl::soap::request(&defs, "echo", "payload").unwrap()))
    });
    group.bench_function("unwrap_value", |b| {
        b.iter(|| black_box(wsinterop_wsdl::soap::unwrap_single_value(&request_xml).unwrap()))
    });
    group.finish();
}

fn parse_once(c: &mut Criterion) {
    // The parse-once pipeline's unit economics: one Artifact Generation
    // step paying the full text parse per cell, versus the shared
    // pre-parsed document.
    let entry = Metro.catalog().get("javax.swing.JTable").unwrap();
    let wsdl = Metro.deploy(entry).wsdl().unwrap().to_string();
    let svc = DocCache::new().parse(wsdl.clone());
    let (defs, facts) = (svc.defs().unwrap(), svc.facts().unwrap());

    let mut group = c.benchmark_group("parse_once");
    group.bench_function("per_cell_text_generate", |b| {
        b.iter(|| black_box(MetroClient.generate(&wsdl)))
    });
    group.bench_function("shared_generate_from", |b| {
        b.iter(|| black_box(MetroClient.generate_from(defs, facts)))
    });
    group.finish();
}

fn full_test_cell(c: &mut Criterion) {
    // One complete (generate + compile) test, the campaign's unit of work.
    let entry = Metro.catalog().get("java.io.IOException").unwrap();
    let wsdl = Metro.deploy(entry).wsdl().unwrap().to_string();
    c.bench_function("one_interop_test_axis1", |b| {
        b.iter(|| {
            let outcome = Axis1.generate(&wsdl);
            let bundle = outcome.artifacts.as_ref().unwrap();
            let compiler = compiler_for(bundle.language).unwrap();
            black_box(compiler.compile(bundle))
        })
    });
}

criterion_group!(
    benches,
    wsdl_emission,
    wsdl_parse_and_wsi,
    artifact_generation,
    compilation,
    soap_messages,
    parse_once,
    full_test_cell
);
criterion_main!(benches);
