//! `locert` — command-line front end for the certification library and
//! its gates.
//!
//! ```text
//! locert certify <scheme> <graph-file> [--certs OUT]   prover → certificates
//! locert verify  <scheme> <graph-file> --certs FILE    run every local verifier
//! locert schemes                                       list available schemes
//! locert experiments | boundcheck | bench_diff | diffhunt | netstorm
//!        | loadgen | tracescope | trace-check …       the tools (see USAGE)
//! ```
//!
//! Every command parses its flags through one `locert_par::run::Run`
//! and follows one exit contract: 0 pass, 1 gate finding (a rejection,
//! regression, violation, or divergence), 2 usage or IO error.
//!
//! Graph files use the edge-list format of `locert::graph::io` (lines
//! `u v`, optional `p <n>` header, `#`/`c` comments). Certificates are
//! stored one per line as `<len_bits>:<hex>`, in vertex order.
//!
//! Scheme specifiers:
//!
//! ```text
//! spanning-tree            Proposition 3.4
//! vertex-count             Proposition 3.4 (pins n from the graph file)
//! acyclicity               the graph is a tree
//! tree-diameter:<D>        diameter ≤ D, on trees
//! treedepth:<t>            Theorem 2.4
//! mso:perfect-matching     Theorem 2.2 (tree promise)
//! mso:height:<c>           Theorem 2.2 (tree promise)
//! mso:uniform-leaves:<c>   Theorem 2.2 (tree promise)
//! tree-depth:<k>           rooted depth ≤ k on trees, O(log k) bits
//! dominating               Lemma A.3 (has a dominating vertex)
//! ptfree:<t>               Corollary 2.7 (P_t-minor-free)
//! ctfree:<t>               Corollary 2.7 (C_t-minor-free)
//! fpf-automorphism         universal scheme, Θ̃(n) bits (Theorem 2.3's ceiling)
//! ```

use locert::automata::library;
use locert::cert::bits::Certificate;
use locert::cert::schemes::acyclicity::AcyclicityScheme;
use locert::cert::schemes::common::id_bits_for;
use locert::cert::schemes::depth2_fo::Depth2FoScheme;
use locert::cert::schemes::minor_free::{CtMinorFreeScheme, PathMinorFreeScheme};
use locert::cert::schemes::mso_tree::MsoTreeScheme;
use locert::cert::schemes::spanning_tree::{SpanningTreeScheme, VertexCountScheme};
use locert::cert::schemes::tree_depth_bound::TreeDepthBoundScheme;
use locert::cert::schemes::tree_diameter::TreeDiameterScheme;
use locert::cert::schemes::treedepth::TreedepthScheme;
use locert::cert::schemes::universal::fpf_automorphism_scheme;
use locert::cert::{run_verification, Assignment, Instance, Scheme};
use locert::graph::{io, Graph, IdAssignment};
use locert::logic::props;
use locert_par::run::{io_error, usage, Failure, Outcome, Run, Verdict};
use std::process::ExitCode;

#[path = "locert/bench_diff.rs"]
mod bench_diff;
#[path = "locert/boundcheck.rs"]
mod boundcheck;
#[path = "locert/diffhunt.rs"]
mod diffhunt;
#[path = "locert/experiments.rs"]
mod experiments;
#[path = "locert/loadgen.rs"]
mod loadgen;
#[path = "locert/netstorm.rs"]
mod netstorm;
#[path = "locert/trace_check.rs"]
mod trace_check;
#[path = "locert/tracescope.rs"]
mod tracescope;

const USAGE: &str = "\
usage: locert <command> …

  certify <scheme> <graph-file> [--certs OUT]
                 run the prover, verify, and write certificates
  verify <scheme> <graph-file> --certs FILE
                 run every local verifier on stored certificates
  schemes        list available schemes
  experiments    regenerate EXPERIMENTS.md (paper vs. measured)
  boundcheck     certificate-size conformance gate (BOUNDS_baseline.json)
  bench_diff     benchmark regression gate
  diffhunt       differential oracle over every scheme
  netstorm       network fault-grid campaign
  loadgen        seeded load generator for a live locert-serve
  tracescope     journal analytics: query, why, diff, windows, flame, tail, serve
  trace-check    validate or compare locert-trace/v2 metrics documents

Run `locert <command> --help` for its flags. Exit codes: 0 pass,
1 gate finding, 2 usage or IO error.";

const CERTIFY_USAGE: &str = "\
usage: locert certify <scheme> <graph-file> [--certs OUT]
       locert verify  <scheme> <graph-file> --certs FILE
       locert schemes";

const SCHEME_HELP: &str = "\
available schemes:
  spanning-tree           O(log n)   Proposition 3.4
  vertex-count            O(log n)   Proposition 3.4
  acyclicity              O(log n)   the graph is a tree
  tree-diameter:<D>       O(log n)   diameter <= D on trees
  treedepth:<t>           O(t log n) Theorem 2.4
  mso:perfect-matching    O(1)       Theorem 2.2 (tree promise)
  mso:height:<c>          O(1)       Theorem 2.2 (tree promise)
  mso:uniform-leaves:<c>  O(1)       Theorem 2.2 (tree promise)
  tree-depth:<k>          O(log k)   rooted depth <= k on trees (§2.4 remark)
  dominating              O(log n)   Lemma A.3
  ptfree:<t>              O(log n)   Corollary 2.7
  ctfree:<t>              O(log n)   Corollary 2.7 (block promise, see docs)
  fpf-automorphism        ~n^2       universal scheme (Theorem 2.3 ceiling)";

fn build_scheme(spec: &str, id_bits: u32) -> Result<Box<dyn Scheme>, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let param = |i: usize| -> Result<usize, String> {
        parts
            .get(i)
            .ok_or_else(|| format!("scheme `{spec}` needs a parameter\n{SCHEME_HELP}"))?
            .parse()
            .map_err(|_| format!("invalid parameter in `{spec}`"))
    };
    Ok(match parts[0] {
        "spanning-tree" => Box::new(SpanningTreeScheme::new(id_bits)),
        "vertex-count" => Box::new(VertexCountScheme::any_count(id_bits)),
        "acyclicity" => Box::new(AcyclicityScheme::new(id_bits)),
        "tree-diameter" => Box::new(TreeDiameterScheme::new(id_bits, param(1)? as u64)),
        "treedepth" => Box::new(TreedepthScheme::new(id_bits, param(1)?)),
        "tree-depth" => Box::new(TreeDepthBoundScheme::new(param(1)?)),
        "mso" => match parts.get(1) {
            Some(&"perfect-matching") => {
                Box::new(MsoTreeScheme::new(library::has_perfect_matching()))
            }
            Some(&"height") => Box::new(MsoTreeScheme::new(library::height_at_most(param(2)?))),
            Some(&"uniform-leaves") => {
                Box::new(MsoTreeScheme::new(library::uniform_leaf_depth(param(2)?)))
            }
            _ => return Err(format!("unknown MSO property in `{spec}`\n{SCHEME_HELP}")),
        },
        "dominating" => Box::new(
            Depth2FoScheme::from_formula(id_bits, &props::has_dominating_vertex())
                .expect("depth-2 sentence"),
        ),
        "ptfree" => Box::new(PathMinorFreeScheme::new(id_bits, param(1)?)),
        "ctfree" => Box::new(CtMinorFreeScheme::new(id_bits, param(1)?)),
        "fpf-automorphism" => Box::new(fpf_automorphism_scheme(id_bits)),
        _ => return Err(format!("unknown scheme `{spec}`\n{SCHEME_HELP}")),
    })
}

fn load_graph(path: &str) -> Result<Graph, Failure> {
    let text = Run::read(path)?;
    let g = io::parse_edge_list(&text).map_err(|e| io_error(format!("{path}: {e}")))?;
    if g.num_nodes() == 0 {
        return Err(io_error("graph is empty"));
    }
    if !g.is_connected() {
        return Err(io_error(
            "graph is disconnected (the model assumes connectivity)",
        ));
    }
    Ok(g)
}

/// The `<scheme> <graph-file>` operands of `certify` and `verify`.
fn scheme_and_graph(run: &mut Run) -> Result<(Box<dyn Scheme>, Graph), Failure> {
    let [spec, graph_path] = run.exactly("<scheme> <graph-file>")?;
    let g = load_graph(&graph_path)?;
    let ids = IdAssignment::contiguous(g.num_nodes());
    let scheme = build_scheme(&spec, id_bits_for(&Instance::new(&g, &ids))).map_err(usage)?;
    Ok((scheme, g))
}

fn cmd_certify(run: &mut Run) -> Outcome {
    let certs_out = run.take_opt("--certs")?;
    let (scheme, g) = scheme_and_graph(run)?;
    let ids = IdAssignment::contiguous(g.num_nodes());
    let inst = Instance::new(&g, &ids);
    let assignment = match scheme.assign(&inst) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("locert certify: prover: {e}");
            return Ok(Verdict::Finding);
        }
    };
    let outcome = run_verification(scheme.as_ref(), &inst, &assignment);
    println!(
        "scheme {}: n = {}, certificate size = {} bits (total {} bits), verification: {}",
        scheme.name(),
        g.num_nodes(),
        assignment.max_bits(),
        assignment.total_bits(),
        if outcome.accepted() {
            "all accept"
        } else {
            "REJECTED (bug!)"
        }
    );
    if let Some(path) = certs_out {
        let mut text = String::new();
        for v in g.nodes() {
            text.push_str(&assignment.cert(v).to_hex());
            text.push('\n');
        }
        Run::write_artifact(&path, &text)?;
        println!("certificates written to {path}");
    }
    if !outcome.accepted() {
        eprintln!("locert certify: honest certificates were rejected — please report this");
    }
    Ok(Verdict::from_clean(outcome.accepted()))
}

fn cmd_verify(run: &mut Run) -> Outcome {
    let certs_path = run
        .take_opt("--certs")?
        .ok_or_else(|| usage("verify needs --certs FILE"))?;
    let (scheme, g) = scheme_and_graph(run)?;
    let ids = IdAssignment::contiguous(g.num_nodes());
    let inst = Instance::new(&g, &ids);
    let certs: Vec<Certificate> = Run::read(&certs_path)?
        .lines()
        .enumerate()
        .map(|(i, line)| {
            Certificate::from_hex(line.trim()).ok_or_else(|| {
                io_error(format!("{certs_path}: line {} is not a certificate", i + 1))
            })
        })
        .collect::<Result<_, _>>()?;
    if certs.len() != g.num_nodes() {
        return Err(io_error(format!(
            "{} certificates for {} vertices",
            certs.len(),
            g.num_nodes()
        )));
    }
    let outcome = run_verification(scheme.as_ref(), &inst, &Assignment::new(certs));
    if outcome.accepted() {
        println!("ACCEPTED: every vertex accepts");
    } else {
        println!("REJECTED by vertices {:?}", outcome.rejecting());
    }
    Ok(Verdict::from_clean(outcome.accepted()))
}

fn cmd_schemes(run: &mut Run) -> Outcome {
    run.done()?;
    println!("{SCHEME_HELP}");
    Ok(Verdict::Pass)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    type Tool = fn(&mut Run) -> Outcome;
    let (usage_text, tool): (&'static str, Tool) = match args.first().map(String::as_str) {
        Some("certify") => (CERTIFY_USAGE, cmd_certify),
        Some("verify") => (CERTIFY_USAGE, cmd_verify),
        Some("schemes") => (CERTIFY_USAGE, cmd_schemes),
        Some("experiments") => (experiments::USAGE, experiments::main),
        Some("boundcheck") => (boundcheck::USAGE, boundcheck::main),
        Some("bench_diff") => (bench_diff::USAGE, bench_diff::main),
        Some("diffhunt") => (diffhunt::USAGE, diffhunt::main),
        Some("netstorm") => (netstorm::USAGE, netstorm::main),
        Some("loadgen") => (loadgen::USAGE, loadgen::main),
        Some("tracescope") => (tracescope::USAGE, tracescope::main),
        Some("trace-check") => (trace_check::USAGE, trace_check::main),
        // `locert --help` prints USAGE through the same path.
        _ => {
            return Run::new("locert", USAGE, args).main(|run| match run.shift() {
                Some(cmd) => Err(usage(format!("unknown command {cmd:?}"))),
                None => Err(usage("missing command")),
            })
        }
    };
    let command = args.remove(0);
    Run::new(format!("locert {command}"), usage_text, args).main(tool)
}
