(* The perf tool. With no flag it runs Bechamel microbenchmarks of the hot
   simulator and application paths, one per subsystem a table or figure
   leans on. With --perf-gate it runs the engine-only perf-gate workloads
   and writes their JSON report (BENCH_engine.json by default).

   Regenerating the paper's tables and figures is `repro all`'s job. *)

open Bechamel
open Toolkit
module Cli = Ppp_util.Cli

let cli =
  Cli.create ~prog:"bench [options]"
    ~summary:
      "Run microbenchmarks of the hot simulator paths, or (with \
       --perf-gate) measure the engine hot path and write BENCH_engine.json."

let quick =
  Cli.flag cli [ "--quick" ]
    ~doc:
      "Shorter measurements: a quarter-second quota per microbenchmark, \
       quarter-length perf-gate windows (faster, noisier)."

let batch =
  Cli.int cli [ "--batch" ] ~docv:"N"
    ~doc:
      "Engine burst budget of the perf-gate workloads: trace ops a \
       scheduled core may retire per scheduling decision."
    Ppp_core.Runner.Params.default.Ppp_core.Runner.batch

let perf_gate_flag =
  Cli.flag cli [ "--perf-gate" ]
    ~doc:
      "Instead of the microbenchmarks, run the engine-only perf-gate \
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
  if !batch < 1 then Cli.die cli "--batch must be >= 1"

let quick = !quick
let batch = !batch

(* --- Microbenchmarks of the paths each experiment exercises --- *)

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

let () = if !perf_gate_flag then perf_gate () else microbenchmarks ()
