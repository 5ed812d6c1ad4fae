//! Micro-benchmarks of the engineering-critical kernels:
//! motif-induced adjacency (Table II pipeline), Motif-based PageRank,
//! hypergraph convolution forward/backward, and the sparse kernels they
//! are built from. These quantify the design choices DESIGN.md calls out
//! (masked vs unfused sparse products, attention vs plain convolution).
//!
//! The final group measures the `ahntp-par` worker pool: each hot kernel
//! timed serially (1 thread) and in parallel, with the outputs compared
//! bit-for-bit, emitted both as a markdown table and as machine-readable
//! `BENCH {json}` lines.

use std::hint::black_box;
use std::time::Instant;

use ahntp_bench::{print_row, Dataset, Scale};
use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_graph::{motif_adjacency, motif_pagerank, pagerank, Motif, MotifPageRankConfig, PageRankConfig};
use ahntp_hypergraph::{attribute_hypergroup, pairwise_hypergroup, Hypergraph};
use ahntp_nn::{AdaptiveHypergraphConv, HypergraphConv, Module, Session, TrustArtifact};
use ahntp_serve::TrustIndex;
use ahntp_tensor::{xavier_uniform, CsrMatrix};
use ahntp_telemetry::json::Json;

/// Timed calls per kernel in the timing table.
const SAMPLES: usize = 10;

fn setup() -> (TrustDataset, Hypergraph) {
    let ds = TrustDataset::generate(&DatasetConfig::ciao_like(300, 9));
    let attr = attribute_hypergroup(ds.graph.n(), &ds.attributes);
    let pair = pairwise_hypergroup(&ds.graph);
    let h = Hypergraph::concat(&[&attr, &pair]);
    (ds, h)
}

fn bench_motif_adjacency() {
    let (ds, _) = setup();
    for motif in [Motif::M1, Motif::M4, Motif::M6] {
        row("motif_adjacency", &motif.to_string(), || {
            motif_adjacency(&ds.graph, motif)
        });
    }
    // The unfused alternative (full spmm then Hadamard) as the ablation
    // point for the masked-product design choice.
    let uc = ds.graph.unidirectional();
    let uc_t = uc.transpose();
    row("motif_adjacency", "m1_fused_masked_spmm", || {
        uc.spmm_masked(&uc, &uc_t)
    });
    row("motif_adjacency", "m1_unfused_spmm_then_hadamard", || {
        uc.spmm(&uc).hadamard(&uc_t)
    });
}

fn bench_pagerank() {
    let (ds, _) = setup();
    row("pagerank", "plain", || {
        pagerank(&ds.graph, &PageRankConfig::default())
    });
    row("pagerank", "motif_based_m6", || {
        motif_pagerank(&ds.graph, Motif::M6, &MotifPageRankConfig::default())
    });
}

fn bench_hypergraph_conv() {
    let (ds, h) = setup();
    let x = xavier_uniform(ds.graph.n(), 32, 11);
    let plain = HypergraphConv::new("b.plain", &h, 32, 32, 5);
    let adaptive = AdaptiveHypergraphConv::new("b.adaptive", &h, 32, 32, 5);
    row("hypergraph_conv", "plain_forward", || {
        let s = Session::new();
        let xv = s.constant(x.clone());
        plain.forward(&s, &xv).value()
    });
    row("hypergraph_conv", "adaptive_forward", || {
        let s = Session::new();
        let xv = s.constant(x.clone());
        adaptive.forward(&s, &xv).value()
    });
    row("hypergraph_conv", "adaptive_forward_backward", || {
        let s = Session::new();
        let xv = s.constant(x.clone());
        let y = adaptive.forward(&s, &xv);
        y.mul(&y).sum().backward();
        s.harvest();
        adaptive.params().len()
    });
}

fn bench_sparse_kernels() {
    let (ds, h) = setup();
    let inc: CsrMatrix<f32> = h.incidence();
    let x = xavier_uniform(h.n_edges(), 64, 13);
    let y = xavier_uniform(h.n_vertices(), 64, 14);
    row("sparse_kernels", "incidence_mul_dense", || {
        inc.mul_dense(&x)
    });
    row("sparse_kernels", "incidence_t_mul_dense", || {
        inc.t_mul_dense(&y)
    });
    let adj = ds.graph.adjacency();
    row("sparse_kernels", "adjacency_spmm_self", || adj.spmm(adj));
}

/// Times one kernel (best of [`SAMPLES`] calls) and prints its table row.
fn row<O>(group: &str, kernel: &str, mut f: impl FnMut() -> O) {
    let best = time_best(SAMPLES, || {
        black_box(f());
    });
    print_row(&[
        group.to_string(),
        kernel.to_string(),
        format!("{:.1}", best * 1e6),
    ]);
}

/// Best-of-N wall time for one closure, with one untimed warmup.
fn time_best(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup: page in inputs, spin up pool workers
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Times `compute` serially and in parallel, asserts the results are
/// bitwise identical, prints one markdown row, and emits a `BENCH` JSON
/// line. Returns nothing; panics on a determinism violation.
fn speedup_case(
    kernel: &str,
    shape: &str,
    par_threads: usize,
    compute: impl Fn() -> Vec<f32>,
) {
    const ITERS: usize = 3;
    ahntp_par::set_threads(1);
    let serial_out: Vec<u32> = compute().iter().map(|v| v.to_bits()).collect();
    let serial_s = time_best(ITERS, || {
        compute();
    });
    ahntp_par::set_threads(par_threads);
    let par_out: Vec<u32> = compute().iter().map(|v| v.to_bits()).collect();
    let par_s = time_best(ITERS, || {
        compute();
    });
    assert_eq!(
        serial_out, par_out,
        "{kernel} {shape}: parallel result differs from serial"
    );
    let speedup = serial_s / par_s;
    print_row(&[
        kernel.to_string(),
        shape.to_string(),
        format!("{:.2}", serial_s * 1e3),
        format!("{:.2}", par_s * 1e3),
        format!("{speedup:.2}x"),
    ]);
    let line = Json::obj([
        ("bench", "par_speedup".into()),
        ("kernel", kernel.into()),
        ("shape", shape.into()),
        ("threads", par_threads.into()),
        (
            "host_threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()).into(),
        ),
        ("serial_ms", (serial_s * 1e3).into()),
        ("parallel_ms", (par_s * 1e3).into()),
        ("speedup", speedup.into()),
        ("bitwise_identical", true.into()),
    ]);
    println!("BENCH {}", line.to_line());
}

/// Serial-vs-parallel speedup table over the pool-backed kernels. Each
/// case flips the global thread count between timings. Parallel thread
/// count comes from
/// `AHNTP_THREADS` when set above 1, else 4 (wall-clock gains need real
/// cores; results are bitwise identical regardless).
fn bench_par_speedup() {
    let scale = Scale::from_env();
    let old_threads = ahntp_par::threads();
    let par_threads = if old_threads > 1 { old_threads } else { 4 };

    println!("\n## ahntp-par speedup ({par_threads} threads vs serial, best of 3)\n");
    print_row(&[
        "kernel".into(),
        "shape".into(),
        "serial (ms)".into(),
        "parallel (ms)".into(),
        "speedup".into(),
    ]);
    print_row(&["---".into(), "---".into(), "---".into(), "---".into(), "---".into()]);

    // Dense matmul at the canonical 512-cube.
    let a = xavier_uniform(512, 512, 21);
    let b = xavier_uniform(512, 512, 22);
    speedup_case("matmul", "512x512x512", par_threads, || {
        a.matmul(&b).as_slice().to_vec()
    });

    // Sparse kernels at Epinions scale: the trust adjacency and the
    // hypergraph incidence aggregation that dominate training steps.
    let ds = Dataset::Epinions.generate(&scale);
    let adj = ds.graph.adjacency();
    let n = ds.graph.n();
    speedup_case("spmm", &format!("adj^2 n={n}"), par_threads, || {
        let p = adj.spmm(adj);
        p.values().iter().map(|&v| v as f32).collect()
    });
    let attr = attribute_hypergroup(n, &ds.attributes);
    let pair = pairwise_hypergroup(&ds.graph);
    let h = Hypergraph::concat(&[&attr, &pair]);
    let inc: CsrMatrix<f32> = h.incidence();
    let x = xavier_uniform(h.n_edges(), 64, 23);
    speedup_case(
        "mul_dense",
        &format!("{}x{}@64", h.n_vertices(), h.n_edges()),
        par_threads,
        || inc.mul_dense(&x).as_slice().to_vec(),
    );

    // Top-k trustee retrieval over a synthetic full-size index.
    let users = 4096;
    let dim = 64;
    let heads = |seed| xavier_uniform(users, dim, seed).normalize_rows();
    let artifact = TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: 0,
        calibration: 0.5,
        n_users: users,
        emb_dim: dim,
        head_dim: dim,
        embeddings: vec![0.0; users * dim].into(),
        trustor_head: heads(24).as_slice().to_vec().into(),
        trustee_head: heads(25).as_slice().to_vec().into(),
    };
    let index = TrustIndex::from_artifact(artifact).expect("synthetic artifact is valid");
    speedup_case("topk", &format!("k=10 n={users} d={dim}"), par_threads, || {
        (0..16)
            .flat_map(|u| {
                index
                    .top_k_trustees(u, 10)
                    .expect("user in range")
                    .into_iter()
                    .map(|(v, s)| v as f32 + s)
            })
            .collect()
    });

    ahntp_par::set_threads(old_threads);
}

fn main() {
    println!("## Kernel timings (best of {SAMPLES})\n");
    print_row(&["group".into(), "kernel".into(), "best (µs)".into()]);
    print_row(&["---".into(), "---".into(), "---".into()]);
    bench_motif_adjacency();
    bench_pagerank();
    bench_hypergraph_conv();
    bench_sparse_kernels();
    bench_par_speedup();
}
