(* The full benchmark harness:

   Part 1 regenerates every table and figure of the paper (the experiment
   drivers of ppp.experiments), printing the same rows/series the paper
   reports. Part 2 runs Bechamel microbenchmarks of the hot simulator and
   application paths, one per subsystem a table/figure leans on.

   Pass --quick for quarter-length measurement windows, --tables-only to
   skip the (wall-clock, hence nondeterministic) microbenchmarks — with it,
   stdout is byte-identical across --jobs values for a given seed.
   --metrics-dir DIR additionally samples per-core counters during Part 1
   and exports series.csv / spans.csv / manifest.json. *)

open Bechamel
open Toolkit
module Cli = Ppp_util.Cli

let cli =
  Cli.create ~prog:"bench [options]"
    ~summary:
      "Regenerate the paper's tables/figures, run microbenchmarks, or (with \
       --perf-gate) measure the engine hot path and write BENCH_engine.json."

let quick =
  Cli.flag cli [ "--quick" ]
    ~doc:"Quarter-length measurement windows (faster, noisier)."

let tables_only =
  Cli.flag cli [ "--tables-only" ]
    ~doc:
      "Skip the (wall-clock, hence nondeterministic) microbenchmarks; \
       stdout is then byte-identical across --jobs values for a given seed."

let jobs =
  Cli.int cli [ "--jobs"; "-j" ] ~docv:"N"
    ~doc:
      "Worker domains for experiment cells (0 = physical cores). Tables \
       are byte-identical for any value."
    0

let batch =
  Cli.int cli [ "--batch" ] ~docv:"N"
    ~doc:
      "Engine burst budget: trace ops a scheduled core may retire per \
       scheduling decision. Output is byte-identical for any value >= 1."
    Ppp_core.Runner.default_params.Ppp_core.Runner.batch

let metrics_dir =
  Cli.opt_string cli [ "--metrics-dir" ] ~docv:"DIR"
    ~doc:
      "Sample per-core counters during Part 1 and export series.csv / \
       spans.csv / manifest.json into DIR."

let profile_flag =
  Cli.flag cli [ "--profile" ]
    ~doc:
      "Attribute cycles / instructions / L3 events to (core, element) \
       during Part 1. Pure observation — tables are byte-identical either \
       way. With --metrics-dir, the manifest gains a populated profile \
       section and the folded flamegraph stacks + top.txt are written \
       alongside it."

let classifier =
  Cli.string cli [ "--classifier" ] ~docv:"BACKEND"
    ~doc:
      "Slow-path backend for the classifier experiment (tss | range | \
       all). Other experiments ignore it."
    "all"

let traffic =
  Cli.string cli [ "--traffic" ] ~docv:"MODEL"
    ~doc:
      "Source model for the traffic experiment (heavy | onoff | churn | \
       all). Other experiments ignore it."
    "all"

let steering =
  Cli.string cli [ "--steering" ] ~docv:"MODEL"
    ~doc:
      "NIC steering model for the traffic experiment (rss | fdir | all). \
       Other experiments ignore it."
    "all"

let perf_gate_flag =
  Cli.flag cli [ "--perf-gate" ]
    ~doc:
      "Instead of the full harness, run the engine-only perf-gate \
       workloads (solo/contended/probed + hit-path allocation audit) and \
       write the JSON report."

let perf_gate_out =
  Cli.string cli [ "--perf-gate-out" ] ~docv:"FILE"
    ~doc:"Where --perf-gate writes its report." "BENCH_engine.json"

let perf_gate_runs =
  Cli.int cli [ "--perf-gate-runs" ] ~docv:"N"
    ~doc:
      "Repetitions per perf-gate workload; the best (least-interrupted) \
       wall time of the N is reported. 0 = the gate's default (3, or 1 \
       with --quick)."
    0

let () =
  (match Cli.parse cli Sys.argv with
  | [] -> ()
  | a :: _ -> Cli.die cli (Printf.sprintf "unexpected argument %S" a));
  if !jobs < 0 then Cli.die cli "--jobs must be >= 0";
  if !batch < 1 then Cli.die cli "--batch must be >= 1";
  if Ppp_core.Runner.classifier_of_name !classifier = None then
    Cli.die cli
      (Printf.sprintf "unknown --classifier backend %S (tss|range|all)"
         !classifier);
  if Ppp_core.Runner.traffic_of_name !traffic = None then
    Cli.die cli
      (Printf.sprintf "unknown --traffic model %S (heavy|onoff|churn|all)"
         !traffic);
  if Ppp_core.Runner.steering_of_name !steering = None then
    Cli.die cli
      (Printf.sprintf "unknown --steering model %S (rss|fdir|all)" !steering);
  Ppp_core.Parallel.set_jobs !jobs

let quick = !quick
let tables_only = !tables_only
let metrics_dir = !metrics_dir
let batch = !batch

let params =
  let p =
    Ppp_core.Runner.Params.(
      default |> with_batch batch
      |> with_profile !profile_flag
      |> with_classifier
           (Option.get (Ppp_core.Runner.classifier_of_name !classifier))
      |> with_traffic (Option.get (Ppp_core.Runner.traffic_of_name !traffic))
      |> with_steering
           (Option.get (Ppp_core.Runner.steering_of_name !steering)))
  in
  if quick then
    Ppp_core.Runner.Params.with_windows
      ~warmup:(p.Ppp_core.Runner.warmup_cycles / 4)
      ~measure:(p.Ppp_core.Runner.measure_cycles / 4)
      p
  else p

(* --- Part 1: reproduce every table and figure --- *)

let reproduce () =
  print_endline "==========================================================";
  print_endline " Part 1: regenerating every table and figure of the paper";
  print_endline "==========================================================";
  (match metrics_dir with
  | Some _ ->
      Ppp_telemetry.Recorder.configure
        ~sample_cycles:
          (max 1 (params.Ppp_core.Runner.measure_cycles / 20))
        ~spans:true ()
  | None -> ());
  List.iter
    (fun e ->
      Printf.printf "\n=== %s (%s): %s ===\n%!" e.Ppp_experiments.Registry.id
        e.Ppp_experiments.Registry.paper_ref e.Ppp_experiments.Registry.title;
      Ppp_telemetry.Recorder.set_experiment e.Ppp_experiments.Registry.id;
      let t0 = Unix.gettimeofday () in
      print_string
        (e.Ppp_experiments.Registry.run ~params ()).Ppp_experiments.Output.text;
      let wall_s = Unix.gettimeofday () -. t0 in
      Ppp_telemetry.Recorder.set_experiment "";
      Ppp_telemetry.Recorder.record_experiment
        ~id:e.Ppp_experiments.Registry.id
        ~title:e.Ppp_experiments.Registry.title
        ~paper_ref:e.Ppp_experiments.Registry.paper_ref ~wall_s;
      (* Wall-clock goes to stderr (and the manifest) so stdout is
         byte-identical across job counts, seeds being equal. *)
      Printf.eprintf "[%s: %.1fs]\n%!" e.Ppp_experiments.Registry.id wall_s)
    Ppp_experiments.Registry.all;
  match metrics_dir with
  | Some dir ->
      Ppp_telemetry.Export.write_metrics
        ~run_cache:(Ppp_core.Runner.cache_stats ())
        ~dir
        ~run:
          {
            Ppp_telemetry.Manifest.tool = "bench";
            machine =
              params.Ppp_core.Runner.config.Ppp_hw.Machine.name;
            seed = params.Ppp_core.Runner.seed;
            warmup_cycles = params.Ppp_core.Runner.warmup_cycles;
            measure_cycles = params.Ppp_core.Runner.measure_cycles;
            jobs_configured = Ppp_core.Parallel.configured_jobs ();
            jobs_effective = Ppp_core.Parallel.jobs ();
            sample_cycles = Ppp_telemetry.Recorder.sampling ();
          };
      Printf.eprintf "wrote series.csv, spans.csv, manifest.json to %s/\n%!"
        dir;
      if !profile_flag then begin
        Ppp_telemetry.Export.write_profile_dir ~dir;
        Printf.eprintf
          "wrote profile_cycles.folded, profile_l3_misses.folded, top.txt \
           to %s/\n\
           %!"
          dir
      end
  | None -> ()

(* --- Part 2: microbenchmarks of the paths each experiment exercises --- *)

let heap () = Ppp_simmem.Heap.create ~node:0

(* table1/fig2/fig4...: everything runs through Hierarchy.access. *)
let bench_cache_access =
  let hier = Ppp_hw.Machine.build Ppp_hw.Machine.scaled in
  let rng = Ppp_util.Rng.create ~seed:1 in
  let now = ref 0 in
  Test.make ~name:"hierarchy_access"
    (Staged.stage (fun () ->
         now := !now + 10;
         Ppp_hw.Hierarchy.access hier ~core:0 ~write:false ~fn:Ppp_hw.Fn.none
           ~addr:(Ppp_util.Rng.int rng 65536 * 64)
           ~now:!now))

(* table1 row IP / fig2 column IP: trie lookups. *)
let bench_trie_lookup =
  let h = heap () in
  let pool = Ppp_apps.Route_pool.make ~seed:3 ~n16:64 ~routes:4096 in
  let trie =
    Ppp_apps.Radix_trie.create ~heap:h
      ~max_nodes:(Ppp_apps.Route_pool.suggested_max_nodes ~n16:64 ~routes:4096)
      ~default_hop:0 ()
  in
  let () = Ppp_apps.Route_pool.install pool trie in
  let rng = Ppp_util.Rng.create ~seed:4 in
  Test.make ~name:"radix_trie_lookup"
    (Staged.stage (fun () ->
         Ppp_apps.Radix_trie.lookup_quiet trie
           (Ppp_apps.Route_pool.random_dst pool rng)))

(* table1 row MON: flow-table updates. *)
let bench_netflow_update =
  let h = heap () in
  let nf = Ppp_apps.Netflow.create ~heap:h ~entries:4096 in
  let b = Ppp_hw.Trace.Builder.create () in
  let rng = Ppp_util.Rng.create ~seed:5 in
  let pkt = Ppp_net.Packet.create 64 in
  Test.make ~name:"netflow_update"
    (Staged.stage (fun () ->
         Ppp_hw.Trace.Builder.clear b;
         Ppp_traffic.Gen.fill_ipv4_udp pkt
           ~src:(Ppp_util.Rng.int rng 0xFFFFFF)
           ~dst:0x0A000001
           ~sport:(Ppp_util.Rng.int rng 60000)
           ~dport:80 ~wire_len:64;
         Ppp_apps.Netflow.update nf b ~fn:Ppp_hw.Fn.none pkt ~now:0))

(* table1 row VPN: AES block encryption. *)
let bench_aes_block =
  let key = Ppp_apps.Aes.expand_key "0123456789abcdef" in
  let block = Bytes.make 16 'x' in
  Test.make ~name:"aes128_block"
    (Staged.stage (fun () -> Ppp_apps.Aes.encrypt_block key block ~src:0 ~dst:0))

(* table1 row RE: redundancy-elimination encode. *)
let bench_re_encode =
  let h = heap () in
  let re = Ppp_apps.Re.create ~heap:h ~store_bytes:262144 ~table_entries:8192 () in
  let b = Ppp_hw.Trace.Builder.create () in
  let rng = Ppp_util.Rng.create ~seed:6 in
  let payload = Bytes.make 512 '\000' in
  let out = Bytes.make 2048 '\000' in
  Test.make ~name:"re_encode_512B"
    (Staged.stage (fun () ->
         Ppp_hw.Trace.Builder.clear b;
         if Ppp_util.Rng.bool rng then Ppp_util.Rng.fill_bytes rng payload ~pos:0 ~len:512;
         ignore
           (Ppp_apps.Re.encode re b ~fn:Ppp_hw.Fn.none payload ~pos:0 ~len:512
              ~out
             : int)))

(* fig2/fig8/fig10: whole-packet simulation rate for an IP flow. *)
let bench_engine_packet =
  let hier = Ppp_hw.Machine.build Ppp_hw.Machine.scaled in
  let h = heap () in
  let rng = Ppp_util.Rng.create ~seed:7 in
  let flow =
    Ppp_apps.App.flow Ppp_apps.App.IP ~heap:h ~rng
      ~scale:Ppp_hw.Machine.scaled.Ppp_hw.Machine.scale ()
  in
  let source = Ppp_click.Flow.source flow in
  let now = ref 0 in
  Test.make ~name:"simulate_ip_packet"
    (Staged.stage (fun () ->
         now := !now + 1000;
         match source !now with
         | Ppp_hw.Engine.Packet t
         | Ppp_hw.Engine.Idle t
         | Ppp_hw.Engine.Reordered t ->
             for i = 0 to Ppp_hw.Trace.length t - 1 do
               match Ppp_hw.Trace.kind t i with
               | Ppp_hw.Trace.Read | Ppp_hw.Trace.Write ->
                   ignore
                     (Ppp_hw.Hierarchy.access hier ~core:0
                        ~write:(Ppp_hw.Trace.kind t i = Ppp_hw.Trace.Write)
                        ~fn:(Ppp_hw.Trace.fn t i)
                        ~addr:(Ppp_hw.Trace.payload t i)
                        ~now:!now
                       : int)
               | Ppp_hw.Trace.Dma ->
                   Ppp_hw.Hierarchy.dma_write hier
                     ~addr:(Ppp_hw.Trace.payload t i) ~now:!now
               | Ppp_hw.Trace.Compute | Ppp_hw.Trace.Stall -> ()
             done))

(* lookup-algorithm baseline: binary trie walks ~3x more nodes. *)
let bench_binary_trie =
  let h = heap () in
  let pool = Ppp_apps.Route_pool.make ~seed:3 ~n16:64 ~routes:4096 in
  let trie = Ppp_apps.Binary_trie.create ~heap:h ~max_nodes:131072 ~default_hop:0 () in
  let () =
    Array.iter
      (fun (prefix, plen, hop) ->
        Ppp_apps.Binary_trie.add_route trie ~prefix ~plen ~hop)
      (Ppp_apps.Route_pool.routes pool)
  in
  let rng = Ppp_util.Rng.create ~seed:8 in
  Test.make ~name:"binary_trie_lookup"
    (Staged.stage (fun () ->
         Ppp_apps.Binary_trie.lookup_quiet trie
           (Ppp_apps.Route_pool.random_dst pool rng)))

(* DPI: Aho-Corasick scan of a 512B payload. *)
let bench_dpi_scan =
  let h = heap () in
  let prng = Ppp_util.Rng.create ~seed:9 in
  let patterns =
    List.init 32 (fun _ ->
        String.init (8 + Ppp_util.Rng.int prng 8) (fun _ ->
            Char.chr (1 + Ppp_util.Rng.int prng 255)))
  in
  let dpi = Ppp_apps.Dpi.create ~heap:h patterns in
  let payload = Bytes.create 512 in
  let rng = Ppp_util.Rng.create ~seed:10 in
  Test.make ~name:"dpi_scan_512B"
    (Staged.stage (fun () ->
         Ppp_util.Rng.fill_bytes rng payload ~pos:0 ~len:512;
         Ppp_apps.Dpi.scan_quiet dpi payload ~pos:0 ~len:512))

(* authenticated VPN: HMAC-SHA256 of a 512B payload. *)
let bench_hmac =
  let payload = Bytes.make 512 'q' in
  Test.make ~name:"hmac_sha256_512B"
    (Staged.stage (fun () ->
         Ppp_apps.Sha256.hmac ~key:"0123456789abcdef" payload ~pos:0 ~len:512))

(* fig7 / appendix A: the analytic model evaluation. *)
let bench_cache_model =
  let rc = ref 0.0 in
  Test.make ~name:"cache_model_eval"
    (Staged.stage (fun () ->
         rc := !rc +. 1e5;
         if !rc > 3e8 then rc := 0.0;
         Ppp_core.Cache_model.conversion_rate ~cache_lines:24576 ~chunks:30000
           ~target_hits_per_sec:1e7 ~competing_refs_per_sec:!rc))

let microbenchmarks () =
  print_endline "";
  print_endline "==========================================================";
  print_endline " Part 2: microbenchmarks of the hot simulator paths";
  print_endline "==========================================================";
  let tests =
    [
      bench_cache_access;
      bench_trie_lookup;
      bench_netflow_update;
      bench_aes_block;
      bench_re_encode;
      bench_binary_trie;
      bench_dpi_scan;
      bench_hmac;
      bench_engine_packet;
      bench_cache_model;
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.25 else 1.0))
      ~stabilize:true ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let t =
    Ppp_util.Table.create ~title:"nanoseconds per operation (OLS estimate)"
      [ "benchmark"; "ns/op"; "r^2" ]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let ols =
            Analyze.OLS.ols ~bootstrap:0 ~r_square:true
              ~responder:(Measure.label Instance.monotonic_clock)
              ~predictors:[| Measure.run |]
              raw.Benchmark.lr
          in
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Printf.sprintf "%.1f" e
            | _ -> "?"
          in
          let r2 =
            match Analyze.OLS.r_square ols with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "?"
          in
          Ppp_util.Table.add_row t [ Test.Elt.name elt; estimate; r2 ])
        (Test.elements test))
    tests;
  Ppp_util.Table.print t

(* --- Perf gate: engine-only workloads, written to BENCH_engine.json --- *)

let perf_gate () =
  let out = !perf_gate_out in
  let report =
    match !perf_gate_runs with
    | n when n > 0 -> Ppp_core.Perf_gate.run ~quick ~runs:n ~batch ()
    | _ -> Ppp_core.Perf_gate.run ~quick ~batch ()
  in
  Ppp_telemetry.Json.write_file out (Ppp_core.Perf_gate.to_json report);
  List.iter
    (fun (m : Ppp_core.Perf_gate.measurement) ->
      Printf.printf "%-10s %d flows  %.3fs  %d ops  %.3e ops/s  %.2f B/op\n"
        m.Ppp_core.Perf_gate.name m.Ppp_core.Perf_gate.flows
        m.Ppp_core.Perf_gate.wall_s m.Ppp_core.Perf_gate.engine_ops
        m.Ppp_core.Perf_gate.ops_per_sec
        m.Ppp_core.Perf_gate.allocated_bytes_per_op)
    report.Ppp_core.Perf_gate.workloads;
  let h = report.Ppp_core.Perf_gate.hit in
  Printf.printf "hit-path   %d accesses  %.0f bytes  %.4f B/access  zero_alloc=%b\n"
    h.Ppp_core.Perf_gate.accesses h.Ppp_core.Perf_gate.allocated_bytes
    h.Ppp_core.Perf_gate.bytes_per_access h.Ppp_core.Perf_gate.zero_alloc;
  let ft = report.Ppp_core.Perf_gate.flow_table in
  Printf.printf
    "flow-table %d lookups  %.0f%% hits  %.3e lookups/s  %.4f B/lookup  \
     zero_alloc=%b\n"
    ft.Ppp_core.Perf_gate.lookups
    (100.0 *. ft.Ppp_core.Perf_gate.hit_fraction)
    ft.Ppp_core.Perf_gate.lookups_per_sec
    ft.Ppp_core.Perf_gate.bytes_per_lookup
    ft.Ppp_core.Perf_gate.ft_zero_alloc;
  let sf = report.Ppp_core.Perf_gate.source_fill in
  Printf.printf
    "source-fill %d fills  %.3e fills/s  %.4f B/fill  zero_alloc=%b\n"
    sf.Ppp_core.Perf_gate.fills sf.Ppp_core.Perf_gate.fills_per_sec
    sf.Ppp_core.Perf_gate.bytes_per_fill sf.Ppp_core.Perf_gate.sf_zero_alloc;
  Printf.printf "wrote %s\n%!" out

let () =
  if !perf_gate_flag then perf_gate ()
  else begin
    reproduce ();
    if not tables_only then microbenchmarks ()
  end
