//! Per-layer probes: public calls into each layer, timed from outside over
//! the workload's own inputs (the candidates its warm-up unit discovered,
//! its specs, its proxy configuration). Layer = module path; the metric
//! names are the contract in `metrics.rs`.
//!
//! Every probe runs inside one span of the benchmark's recorder, so the
//! trace file shows where the traced pass's own time went too.

use crate::session::{request, run_search, run_served, SearchJob};
use crate::stats::{mean, median};
use crate::trace::Recorder;
use crate::workloads::ProbeInputs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use syno::compiler::{profile_and_compile, CompilerKind, DType, Device, OperatorClass};
use syno::core::canon::CanonRules;
use syno::core::codec::{decode_graph, encode_graph};
use syno::core::distance::shape_distance;
use syno::core::graph::PGraph;
use syno::core::primitive::Action;
use syno::core::synth::{rollout, Enumerator, RolloutResult, SynthConfig, Synthesis};
use syno::ir::{eager, lower_optimized};
use syno::nn::{
    train_step_on, GlobalAvgPool, LinearLayer, Model, OperatorLayer, ReluLayer, Sgd, VisionTask,
};
use syno::serve::{Daemon, Frame, WireCandidate, WireEvent};
use syno::tensor::{
    init, EinsumEngine, EinsumPlan, EinsumSpec, ExecPolicy, ScratchPool, Tape, Tensor,
};
use syno::{ProxyFamilyId, ScoreContract, ServeConfig, StoreBuilder, SynoClient};

/// Candidates the graph-driven probes run over.
pub const MAX_GRAPHS: usize = 32;
/// Seeded guided rollouts from the empty graph.
const ROLLOUTS: usize = 2000;
/// Operators taken from the exhaustive enumerator.
const ENUMERATED: usize = 200;
/// Synthetic candidates journaled by the store probe: three records each,
/// so replay and compaction see a paper-scale 20 000 records.
const STORE_CANDIDATES: u64 = 6667;

/// Collects `(metric name, value)` pairs and times closures inside spans.
pub struct Probe<'a> {
    rec: &'a Recorder,
    parent: u64,
    pub out: Vec<(&'static str, f64)>,
}

impl<'a> Probe<'a> {
    pub fn new(rec: &'a Recorder, parent: u64) -> Probe<'a> {
        Probe {
            rec,
            parent,
            out: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    /// Seconds per operation: `passes` passes of `f`, which returns how
    /// many operations one pass performed, inside one span named `layer`.
    fn per_op(&self, layer: &'static str, passes: usize, mut f: impl FnMut() -> usize) -> f64 {
        let _span = self.rec.enter(layer, self.parent, 0);
        let clock = Instant::now();
        let ops: usize = (0..passes).map(|_| f()).sum();
        clock.elapsed().as_secs_f64() / ops.max(1) as f64
    }

    /// [`per_op`](Self::per_op) with one operation per item per pass.
    fn per_item<I, T>(
        &self,
        layer: &'static str,
        passes: usize,
        items: &[I],
        mut f: impl FnMut(&I) -> T,
    ) -> f64 {
        self.per_op(layer, passes, || {
            for item in items {
                std::hint::black_box(f(item));
            }
            items.len()
        })
    }

    /// Seconds one call of `f` takes, inside a span named `layer`.
    fn once<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let _span = self.rec.enter(layer, self.parent, 0);
        let clock = Instant::now();
        let value = f();
        (value, clock.elapsed().as_secs_f64())
    }
}

/// Runs every probe. `graphs` are the warm-up unit's candidates, sorted by
/// content hash; `scratch` is an empty directory the store probe may use.
pub fn run(
    probe: &mut Probe<'_>,
    inputs: &ProbeInputs,
    graphs: &[PGraph],
    seed: u64,
    scratch: &Path,
) -> Result<(), String> {
    let graphs = &graphs[..graphs.len().min(MAX_GRAPHS)];
    if graphs.is_empty() {
        return Err("the warm-up unit delivered no candidate to probe".into());
    }
    core(probe, inputs, graphs, seed);
    ir_and_compiler(probe, graphs, seed);
    tensor(probe, inputs, seed);
    nn(probe, inputs)?;
    store(probe, graphs, scratch)?;
    serve(probe, inputs, graphs, seed)?;
    telemetry_span_cost(probe);
    Ok(())
}

fn core(probe: &mut Probe<'_>, inputs: &ProbeInputs, graphs: &[PGraph], seed: u64) {
    let (vars, spec) = (&inputs.primary.vars, &inputs.primary.spec);
    // What `SearchBuilder` synthesizes with when no config is given.
    let config = SynthConfig::auto(vars, 4);
    let enumerator = Enumerator::new(config.clone());
    let root = PGraph::new(Arc::clone(vars), spec.clone());

    let mut rng = StdRng::seed_from_u64(seed);
    let mut complete = 0usize;
    let rollout_s = probe.per_op("core.synth.rollout", 1, || {
        for _ in 0..ROLLOUTS {
            complete += usize::from(matches!(
                rollout(&mut rng, &enumerator, &root, true),
                RolloutResult::Complete(_)
            ));
        }
        ROLLOUTS
    });
    probe.put("core.synth.rollout_us", rollout_s * 1e6);
    probe.put(
        "core.synth.rollout_complete_frac",
        complete as f64 / ROLLOUTS as f64,
    );

    // Partial states along seeded walks, each with one of its canonical
    // children: the inputs `children`, `allows`, `apply` and the shape
    // distance see during search.
    let mut steps: Vec<(PGraph, Action)> = Vec::new();
    while steps.len() < 256 {
        let before = steps.len();
        let mut state = root.clone();
        while state.len() < config.max_steps {
            let children = enumerator.children(&state);
            if children.is_empty() {
                break;
            }
            let action = children[rng.random_range(0..children.len())].clone();
            let Ok(next) = state.apply(&action) else {
                break;
            };
            steps.push((state, action));
            state = next;
        }
        if steps.len() == before {
            break;
        }
    }
    let children_s = probe.per_item("core.synth.children", 2, &steps, |(state, _)| {
        enumerator.children(state)
    });
    probe.put("core.synth.children_us", children_s * 1e6);
    let allows_s = probe.per_item("core.canon.allows", 50, &steps, |(state, action)| {
        config.canon.allows(state, action)
    });
    probe.put("core.canon.allows_ns", allows_s * 1e9);
    // `EnumStats::pruned_canon` is never incremented (the enumerator drops
    // rejected actions inside `children`), so count what the rules reject
    // against the permissive rule set of the Table 3 ablation instead.
    let permissive = Enumerator::new(SynthConfig {
        canon: CanonRules::permissive(),
        ..config.clone()
    });
    let kept: usize = steps
        .iter()
        .map(|(state, _)| enumerator.children(state).len())
        .sum();
    let offered: usize = steps
        .iter()
        .map(|(state, _)| permissive.children(state).len())
        .sum();
    probe.put(
        "core.canon.reject_frac",
        1.0 - kept as f64 / offered.max(1) as f64,
    );
    let distance_s = probe.per_item("core.distance.shape_distance", 50, &steps, |(state, _)| {
        shape_distance(&state.frontier_sizes(), spec.input.dims(), vars)
    });
    probe.put("core.distance.shape_distance_ns", distance_s * 1e9);
    let apply_s = probe.per_item("core.graph.apply", 20, &steps, |(state, action)| {
        state.apply(action)
    });
    probe.put("core.graph.apply_us", apply_s * 1e6);
    let hash_s = probe.per_item("core.graph.content_hash", 200, graphs, PGraph::content_hash);
    probe.put("core.graph.content_hash_ns", hash_s * 1e9);

    let mut synthesis = Synthesis::new(config, vars, spec);
    let mut found = 0usize;
    let enumerate_s = probe.per_op("core.synth.enumerate", 1, || {
        while found < ENUMERATED && matches!(synthesis.next_operator(), Some(Ok(_))) {
            found += 1;
        }
        found
    });
    let stats = synthesis.stats();
    probe.put("core.synth.enumerate_ops_per_s", 1.0 / enumerate_s);
    probe.put(
        "core.synth.expanded_per_result",
        stats.expanded as f64 / found.max(1) as f64,
    );

    let bytes: Vec<Vec<u8>> = graphs.iter().map(encode_graph).collect();
    let encode_s = probe.per_item("core.codec.encode_graph", 50, graphs, encode_graph);
    let decode_s = probe.per_item("core.codec.decode_graph", 20, &bytes, |b| decode_graph(b));
    probe.put("core.codec.encode_graph_us", encode_s * 1e6);
    probe.put("core.codec.decode_graph_us", decode_s * 1e6);
    probe.put(
        "core.codec.graph_bytes",
        mean(&bytes.iter().map(|b| b.len() as f64).collect::<Vec<_>>()),
    );
}

/// Seeded input and weight tensors for `graph` under valuation 0.
pub fn operands(graph: &PGraph, rng: &mut StdRng) -> Option<(Tensor, Vec<Tensor>)> {
    let input_shape: Vec<usize> = graph
        .spec()
        .input
        .eval(graph.vars(), 0)?
        .iter()
        .map(|&d| d as usize)
        .collect();
    let input = init::uniform(rng, &input_shape, -1.0, 1.0);
    let weights = eager::weight_shapes(graph, 0)
        .ok()?
        .iter()
        .map(|shape| init::uniform(rng, shape, -1.0, 1.0))
        .collect();
    Some((input, weights))
}

fn ir_and_compiler(probe: &mut Probe<'_>, graphs: &[PGraph], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let lower_s = probe.per_item("ir.lower.lower_optimized", 3, graphs, |g| {
        lower_optimized(g, 0)
    });
    probe.put("ir.lower.lower_optimized_us", lower_s * 1e6);

    let lowered: Vec<_> = graphs
        .iter()
        .filter_map(|g| Some((lower_optimized(g, 0).ok()?, operands(g, &mut rng)?, g)))
        .collect();
    let compile_s = probe.per_item("ir.plan.compile", 5, &lowered, |(kernel, ..)| {
        kernel.compile().is_compiled()
    });
    probe.put("ir.plan.compile_us", compile_s * 1e6);
    let compiled: Vec<_> = lowered
        .iter()
        .map(|(kernel, (input, weights), _)| (kernel.compile(), input, weights))
        .collect();
    let execute_s = probe.per_item("ir.plan.execute", 2, &compiled, |(plan, input, weights)| {
        plan.execute(input, weights)
    });
    probe.put("ir.plan.execute_us", execute_s * 1e6);
    let stages: usize = lowered.iter().map(|(kernel, ..)| kernel.stages.len()).sum();
    let fused: usize = compiled.iter().map(|(plan, ..)| plan.fused_stages()).sum();
    probe.put(
        "ir.plan.fused_stage_frac",
        fused as f64 / stages.max(1) as f64,
    );

    let mut tape = Tape::new();
    let record_s = probe.per_item(
        "ir.eager.record",
        2,
        &lowered,
        |(_, (input, weights), graph)| {
            tape.reset();
            let x = tape.leaf(input.clone());
            let ws: Vec<_> = weights.iter().map(|w| tape.leaf(w.clone())).collect();
            eager::record(&mut tape, graph, 0, x, &ws).is_ok()
        },
    );
    probe.put("ir.eager.record_us", record_s * 1e6);

    let device = Device::mobile_cpu();
    let tune_s = probe.per_item("compiler.compile.tune", 3, graphs, |g| {
        profile_and_compile(
            g,
            0,
            OperatorClass::Novel,
            "candidate",
            &device,
            CompilerKind::Tvm,
            DType::F32,
        )
    });
    probe.put("compiler.compile.tune_us", tune_s * 1e6);
}

/// One einsum shape class: spec text and operand shapes.
struct Contraction {
    spec: &'static str,
    shapes: Vec<Vec<usize>>,
}

impl Contraction {
    /// 2 × the product of all loop extents — computed, not counted.
    fn flops(&self) -> f64 {
        let parsed = EinsumSpec::parse(self.spec).expect("literal spec parses");
        let extent = |c: char| {
            parsed
                .inputs
                .iter()
                .zip(&self.shapes)
                .find_map(|(indices, shape)| {
                    indices
                        .iter()
                        .position(|&i| i == c)
                        .map(|at| shape[at] as f64)
                })
        };
        2.0 * parsed
            .all_indices()
            .into_iter()
            .filter_map(extent)
            .product::<f64>()
    }

    fn tensors(&self, rng: &mut StdRng) -> Vec<Tensor> {
        self.shapes
            .iter()
            .map(|s| init::uniform(rng, s, -1.0, 1.0))
            .collect()
    }

    /// Seconds per execution under `policy`, plan already compiled.
    fn time(
        &self,
        probe: &Probe<'_>,
        layer: &'static str,
        policy: ExecPolicy,
        tensors: &[Tensor],
    ) -> f64 {
        let mut engine = EinsumEngine::with_policy(policy);
        let mut pool = ScratchPool::default();
        let operands: Vec<&Tensor> = tensors.iter().collect();
        let mut run = |engine: &mut EinsumEngine| {
            std::hint::black_box(
                engine
                    .einsum(self.spec, &operands, &mut pool)
                    .expect("shapes bind"),
            )
        };
        run(&mut engine);
        // Enough executions for ≈0.1 s at 1 GFLOP/s, at least 5.
        let passes = ((1e8 / self.flops()) as usize).clamp(5, 2000);
        probe.per_op(layer, passes, || {
            run(&mut engine);
            1
        })
    }
}

fn tensor(probe: &mut Probe<'_>, inputs: &ProbeInputs, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let v = inputs.vision;
    let (n, cin, cout, hw, k) = (
        v.n as usize,
        v.cin as usize,
        v.cout as usize,
        v.hw as usize,
        v.k as usize,
    );
    let s = inputs.sequence;
    let conv = Contraction {
        spec: "nchwij,ocij->nohw",
        shapes: vec![vec![n, cin, hw, hw, k, k], vec![cout, cin, k, k]],
    };
    let seq = Contraction {
        spec: "btc,cd->btd",
        shapes: vec![
            vec![s.b as usize, s.t as usize, s.c as usize],
            vec![s.c as usize, s.c as usize],
        ],
    };
    let matmul = Contraction {
        spec: "mk,kn->mn",
        shapes: vec![vec![128, 128], vec![128, 128]],
    };

    let parsed = EinsumSpec::parse(conv.spec).expect("literal spec parses");
    let shapes: Vec<&[usize]> = conv.shapes.iter().map(Vec::as_slice).collect();
    let plan_s = probe.per_op("tensor.einsum.plan_compile", 2000, || {
        usize::from(std::hint::black_box(EinsumPlan::compile(&parsed, &shapes)).is_ok())
    });
    probe.put("tensor.einsum.plan_compile_us", plan_s * 1e6);

    let pinned = ExecPolicy::default();
    let conv_tensors = conv.tensors(&mut rng);
    let conv_s = conv.time(probe, "tensor.einsum.conv", pinned, &conv_tensors);
    probe.put("tensor.einsum.conv_gflops", conv.flops() / conv_s / 1e9);
    let seq_s = seq.time(probe, "tensor.einsum.seq", pinned, &seq.tensors(&mut rng));
    probe.put("tensor.einsum.seq_gflops", seq.flops() / seq_s / 1e9);
    let matmul_s = matmul.time(
        probe,
        "tensor.einsum.matmul",
        pinned,
        &matmul.tensors(&mut rng),
    );
    probe.put(
        "tensor.einsum.matmul_gflops",
        matmul.flops() / matmul_s / 1e9,
    );

    // ROADMAP's anomaly: the pooled path at one thread against the serial
    // order, and what a second thread buys. `pinned` *is* `with_threads(1)`.
    let serial_s = conv.time(
        probe,
        "tensor.exec.serial",
        ExecPolicy::serial(),
        &conv_tensors,
    );
    let two_s = conv.time(
        probe,
        "tensor.exec.threads2",
        ExecPolicy::with_threads(2),
        &conv_tensors,
    );
    probe.put(
        "tensor.exec.threads1_overhead_frac",
        conv_s / serial_s - 1.0,
    );
    probe.put("tensor.exec.threads2_speedup", serial_s / two_s);

    let mut tape = Tape::new();
    let fwd_bwd_s = probe.per_op("tensor.autodiff.fwd_bwd", 20, || {
        tape.reset();
        let x = tape.leaf(conv_tensors[0].clone());
        let w = tape.leaf(conv_tensors[1].clone());
        let y = tape.einsum(conv.spec, &[x, w]);
        let loss = tape.mean_all(y);
        let grads = tape.backward(loss);
        tape.recycle_gradients(std::hint::black_box(grads));
        1
    });
    probe.put("tensor.autodiff.fwd_bwd_us", fwd_bwd_s * 1e6);
}

fn nn(probe: &mut Probe<'_>, inputs: &ProbeInputs) -> Result<(), String> {
    let v = inputs.vision;
    let conv = v.conv2d();
    let classes = 4;
    let task = VisionTask::new(
        inputs.proxy.task_seed,
        v.cin as usize,
        v.hw as usize,
        classes,
    );
    let mut rng = StdRng::seed_from_u64(inputs.proxy.init_seed);
    let mut model = Model::new();
    let layer = OperatorLayer::new(conv.clone(), 0).map_err(|e| format!("conv2d student: {e}"))?;
    model.push(Box::new(layer), &mut rng);
    model.push(Box::new(ReluLayer), &mut rng);
    model.push(Box::new(GlobalAvgPool), &mut rng);
    model.push(
        Box::new(LinearLayer::new(v.cout as usize, classes)),
        &mut rng,
    );
    let train = inputs.proxy.train;
    let mut opt = Sgd::new(&model, train.lr, train.momentum, train.weight_decay);
    let mut tape = Tape::with_policy(train.exec);
    let mut step = 0u64;
    let step_s = probe.per_op("nn.train.step", 12, || {
        let (images, labels) = task.batch(step, v.n as usize);
        step += 1;
        std::hint::black_box(train_step_on(
            &mut tape, &mut model, &mut opt, &images, &labels,
        ));
        1
    });
    probe.put("nn.train.step_ms", step_s * 1e3);

    let vision_s = probe.per_op("nn.proxy.score", 2, || {
        usize::from(
            std::hint::black_box(
                ProxyFamilyId::Vision
                    .family()
                    .score(&conv, 0, &inputs.proxy),
            )
            .is_ok(),
        )
    });
    probe.put("nn.proxy.score_ms", vision_s * 1e3);

    // The first operators the enumerator yields at the workload's sequence
    // dimensions that the sequence family can score: seed-independent.
    let seq = inputs.sequence.spec();
    let family = ProxyFamilyId::Sequence.family();
    let operators: Vec<PGraph> =
        Synthesis::new(SynthConfig::auto(&seq.vars, 4), &seq.vars, &seq.spec)
            .filter_map(Result::ok)
            .take(64)
            .filter(|g| family.score(g, 0, &inputs.proxy).is_ok())
            .take(3)
            .collect();
    if operators.is_empty() {
        return Err("no enumerated sequence operator is scorable".into());
    }
    let seq_s = probe.per_item("nn.seq.score", 2, &operators, |g| {
        family.score(g, 0, &inputs.proxy)
    });
    probe.put("nn.seq.score_ms", seq_s * 1e3);
    Ok(())
}

fn store(probe: &mut Probe<'_>, graphs: &[PGraph], scratch: &Path) -> Result<(), String> {
    let dir = scratch.join("probe-store");
    let io = |e: syno::StoreError| format!("store probe: {e}");
    let contract = ScoreContract::new("vision", ExecPolicy::default().reduce_width as u32);
    let hash = |i: u64| 0x5EED_0000_0000_0000u64 | i;

    let store = StoreBuilder::new(&dir).writer("probe").open().map_err(io)?;
    let mut failed = None;
    let append_s = probe.per_op("store.journal.append", 1, || {
        for i in 0..STORE_CANDIDATES {
            let graph = &graphs[i as usize % graphs.len()];
            let put = store
                .put_candidate(hash(i), graph)
                .and_then(|_| store.put_score(hash(i), 0.5, &contract))
                .and_then(|_| store.put_latency(hash(i), "mobile-cpu", "tvm", 1e-3));
            if let Err(e) = put {
                failed = Some(e);
                break;
            }
        }
        3 * STORE_CANDIDATES as usize
    });
    if let Some(e) = failed {
        return Err(io(e));
    }
    probe.put("store.journal.append_us", append_s * 1e6);
    probe.put(
        "store.journal.bytes_per_candidate",
        store.stats().file_bytes as f64 / STORE_CANDIDATES as f64,
    );
    drop(store);

    let (store, replay_s) = probe.once("store.journal.replay", || {
        StoreBuilder::new(&dir).writer("probe").open()
    });
    let store = store.map_err(io)?;
    probe.put(
        "store.journal.replay_records_per_s",
        3.0 * STORE_CANDIDATES as f64 / replay_s,
    );
    let hashes: Vec<u64> = (0..STORE_CANDIDATES).map(hash).collect();
    let recall_s = probe.per_item("store.journal.recall", 20, &hashes, |&h| {
        store.score_for_contract(h, &contract)
    });
    probe.put("store.journal.recall_ns", recall_s * 1e9);
    let (compacted, compact_s) = probe.once("store.journal.compact", || store.compact());
    compacted.map_err(io)?;
    probe.put("store.journal.compact_s", compact_s);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn serve(
    probe: &mut Probe<'_>,
    inputs: &ProbeInputs,
    graphs: &[PGraph],
    seed: u64,
) -> Result<(), String> {
    let frames: Vec<Frame> = graphs
        .iter()
        .map(|g| Frame::Event {
            session: 1,
            event: WireEvent::LatencyTuned {
                scenario: 0,
                id: g.content_hash(),
                candidate: WireCandidate {
                    graph: encode_graph(g),
                    accuracy: 0.5,
                    flops: 1 << 20,
                    params: 1 << 10,
                    latencies: vec![1e-3],
                },
            },
        })
        .collect();
    let payloads: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let encode_s = probe.per_item("serve.protocol.encode", 100, &frames, Frame::encode);
    let framed: Vec<_> = frames.iter().map(Frame::kind).zip(&payloads).collect();
    let decode_s = probe.per_item("serve.protocol.decode", 20, &framed, |(kind, payload)| {
        Frame::decode(*kind, payload)
    });
    probe.put("serve.protocol.encode_us", encode_s * 1e6);
    probe.put("serve.protocol.decode_us", decode_s * 1e6);
    probe.put(
        "serve.protocol.event_frame_bytes",
        mean(&payloads.iter().map(|p| p.len() as f64).collect::<Vec<_>>()),
    );

    let config = ServeConfig {
        eval_workers: 2,
        proxy: inputs.proxy,
        ..ServeConfig::default()
    };
    let daemon =
        Daemon::bind("127.0.0.1:0", None, config).map_err(|e| format!("bind probe daemon: {e}"))?;
    let (handle, thread) = daemon.spawn();
    let result = serve_daemon(probe, inputs, handle.addr(), seed);
    handle.shutdown();
    thread
        .join()
        .map_err(|_| "probe daemon panicked".to_owned())?;
    result
}

fn serve_daemon(
    probe: &mut Probe<'_>,
    inputs: &ProbeInputs,
    addr: &str,
    seed: u64,
) -> Result<(), String> {
    let err = |e: syno::serve::ServeError| format!("serve probe: {e}");
    let client = SynoClient::connect(addr, "probe-a").map_err(err)?;
    let status_us = |client: &SynoClient| -> Result<f64, String> {
        let clock = Instant::now();
        client.status().map_err(err)?;
        Ok(clock.elapsed().as_secs_f64() * 1e6)
    };

    let idle = {
        let _span = probe
            .rec
            .enter("serve.event_loop.status_idle", probe.parent, 0);
        (0..300)
            .map(|_| status_us(&client))
            .collect::<Result<Vec<f64>, String>>()?
    };
    probe.put("serve.event_loop.status_rtt_idle_us", median(&idle));

    // submit() → Accepted, on sessions small enough not to queue behind
    // each other (each is consumed to its Done before the next submit).
    let admit = {
        let _span = probe.rec.enter("serve.daemon.admit", probe.parent, 0);
        (0..20)
            .map(|i| {
                let tiny = request("probe-admit", &inputs.primary, 1, seed ^ i, 1);
                let clock = Instant::now();
                let stream = client.submit(&tiny).map_err(err)?;
                let admitted = clock.elapsed().as_secs_f64() * 1e6;
                stream.messages().for_each(drop);
                Ok(admitted)
            })
            .collect::<Result<Vec<f64>, String>>()?
    };
    probe.put("serve.daemon.admit_us", median(&admit));

    // One of the workload's own sessions through the daemon, three times;
    // meanwhile the first tenant polls status: the round trip then
    // includes the time work waited for the loop.
    let iterations = inputs.iterations.min(300);
    let session = request(
        "probe-busy",
        &inputs.primary,
        iterations as u32,
        seed,
        inputs.proxy.train.steps as u32,
    );
    let mut busy = Vec::new();
    {
        let _span = probe
            .rec
            .enter("serve.event_loop.status_busy", probe.parent, 0);
        let other = SynoClient::connect(addr, "probe-b").map_err(err)?;
        for _ in 0..3 {
            let done = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                let tenant = scope.spawn(|| {
                    let s = run_served(&other, &session, false);
                    done.store(true, std::sync::atomic::Ordering::SeqCst);
                    s
                });
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    busy.push(status_us(&client)?);
                }
                let s = tenant
                    .join()
                    .map_err(|_| "busy tenant panicked".to_owned())?;
                if s.failed {
                    return Err("busy tenant's session failed".to_owned());
                }
                Ok(())
            })?;
        }
    }
    probe.put("serve.event_loop.status_rtt_busy_us", median(&busy));

    // The identical search in process (same spec, seed, proxy, pool width),
    // and the daemon again without a status poller beside it.
    let mut alone = Vec::new();
    let mut in_process = Vec::new();
    {
        let _span = probe.rec.enter("serve.daemon.overhead", probe.parent, 0);
        for _ in 0..3 {
            alone.push(run_served(&client, &session, false).wall_s);
            let job = SearchJob {
                label: "probe-busy",
                spec: &inputs.primary,
                iterations,
                seed,
                proxy: inputs.proxy,
                eval_workers: 2,
                store: None,
                max_flops: None,
            };
            in_process.push(run_search(&job, false, None).wall_s);
        }
    }
    probe.put(
        "serve.daemon.overhead_frac",
        median(&alone) / median(&in_process) - 1.0,
    );
    Ok(())
}

/// Cost of one of the program's own spans while telemetry is on.
fn telemetry_span_cost(probe: &mut Probe<'_>) {
    let was = syno::telemetry::enabled();
    syno::telemetry::set_enabled(true);
    syno::telemetry::trace::clear();
    let span_s = probe.per_op("telemetry.trace.span", 1, || {
        // Below the per-thread ring capacity, so none of these is dropped.
        for _ in 0..4096 {
            drop(syno::telemetry::span!("benchmark_probe"));
        }
        4096
    });
    syno::telemetry::trace::clear();
    syno::telemetry::set_enabled(was);
    probe.put("telemetry.trace.span_ns", span_s * 1e9);
}
