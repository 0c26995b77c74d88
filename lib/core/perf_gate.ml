(* The simulator's own benchmark: fig2-sized Engine.run workloads timed in
   wall-clock, plus an allocation audit of the cache-hit path.

   Every figure of the reproduction funnels through Engine.run, so this is
   the number that bounds how much simulated traffic the repo can afford.
   The gate reports replay throughput (engine ops/sec) and allocation per
   op, and records the bench trajectory: one entry per optimization round,
   kept as code so regenerating BENCH_engine.json never loses history. *)

type measurement = {
  name : string;
  flows : int;
  runs : int;
  wall_s : float;
  engine_ops : int;
  ops_per_sec : float;
  allocated_bytes_per_op : float;
  window_packets : int;
}

type hit_path = {
  accesses : int;
  allocated_bytes : float;
  bytes_per_access : float;
  zero_alloc : bool;
}

type flow_table = {
  lookups : int;
  entries : int;
  hit_fraction : float;
  ft_wall_s : float;
  lookups_per_sec : float;
  bytes_per_lookup : float;
  ft_zero_alloc : bool;
}

type source_fill = {
  fills : int;
  sf_wall_s : float;
  fills_per_sec : float;
  bytes_per_fill : float;
  sf_zero_alloc : bool;
}

type report = {
  config : string;
  seed : int;
  quick : bool;
  warmup_cycles : int;
  measure_cycles : int;
  batch : int;
  workloads : measurement list;
  profile_overhead : float;
  hit : hit_path;
  flow_table : flow_table;
  source_fill : source_fill;
}

type trajectory_point = {
  label : string;
  contended_ops_per_sec : float;
  contended_bytes_per_op : float;
  hit_path_bytes_per_access : float;
}

(* The recorded trajectory: full-length (non-quick) contended workload on
   the scaled machine, measured at commit time on the dev container. CI
   re-measures and only warns on drift (shared runners are noisy); the
   committed numbers are the history that matters. *)
let trajectory =
  [
    {
      label = "pre-heap engine (O(cores) min-scan, option-allocating caches)";
      contended_ops_per_sec = 2.962e6;
      contended_bytes_per_op = 295.9;
      hit_path_bytes_per_access = 79.7;
    };
    {
      label =
        "heap scheduler + sentinel cache probes + hoisted counters + raw \
         trace decode + single-pass victim_slot";
      contended_ops_per_sec = 4.536e6;
      contended_bytes_per_op = 13.2;
      hit_path_bytes_per_access = 1.2e-5;
    };
    {
      (* Wall-clock measured on a noticeably slower container day than the
         previous point (its spin calibration ran ~30% behind); the
         like-for-like wins of this round are the engine window going
         allocation-free (13.2 -> ~0 B/op, the residue is the measurement's
         own float boxing) and the probed workload closing on contended
         (3.74e6 vs 3.74e6 ops/s in the same gate run — the per-op
         sample-deadline check is now folded into the burst bound). *)
      label =
        "burst engine: run-ahead horizon batching, flat two-min scan \
         scheduler, way-predicted cache probes, merged L3 find-or-victim";
      contended_ops_per_sec = 3.87e6;
      contended_bytes_per_op = 0.05;
      hit_path_bytes_per_access = 1.2e-5;
    };
    {
      (* The engine is untouched this round — the ops/s delta vs the
         previous point is container noise again (same-day re-measures of
         the previous binary land in the same 2.4e6 band). What this round
         adds is the classifier fast path: Flow_table.find joins the gate
         as its own loop, entering at 5.2e6 lookups/s with the lookup path
         allocation-free like the cache-hit path before it. *)
      label =
        "classify subsystem: flow-table fast path over dual slow-path \
         backends; engine unchanged, find loop gated zero-alloc";
      contended_ops_per_sec = 2.375e6;
      contended_bytes_per_op = 0.05;
      hit_path_bytes_per_access = 1.2e-5;
    };
    {
      (* Every packet of every workload now goes through Source.fill plus
         the per-flow reordering detector. Keeping contended at 0.05 B/op
         took one redesign: the detector's flow state is a direct-mapped
         tag/mark array, not a hash table, because a 12.5k-flow workload
         inserts a fresh key (one boxed bucket cell) on almost every
         packet of a gate-sized window — measured at +0.85 B/op before
         the rewrite. Source.fill itself joins the gate as its own
         zero-alloc loop (heavy-tailed sampler, ~4.7e6 fills/s). The
         ops/s delta vs the previous point is container noise: a same-day
         HEAD re-measure ran at 4.1e6 ops/s. *)
      label =
        "traffic source layer: Source.fill on every packet path, \
         direct-mapped reorder detector, fill loop gated zero-alloc";
      contended_ops_per_sec = 4.526e6;
      contended_bytes_per_op = 0.05;
      hit_path_bytes_per_access = 1.2e-5;
    };
    {
      (* The profiler round: the engine hot path gains one branch on the
         attribution option per op, free when profiling is off — the
         measured +0.05 B/op vs the previous point is the two new per-core
         in-order/reordered latency histograms built once per window, not a
         per-op allocation (two ~8 KB bucket arrays per core over a 1.9M-op
         window). The new "profiled" workload runs the same contended
         window under the per-element profiler; this round it lands 6%
         behind contended, reported as profile_overhead. *)
      label =
        "per-element attribution profiler: opt-in Attrib counters on the \
         engine hot path, profiling-off window still zero-alloc per op, \
         profiled workload joins the gate";
      contended_ops_per_sec = 3.793e6;
      contended_bytes_per_op = 0.1;
      hit_path_bytes_per_access = 1.2e-5;
    };
  ]

let wall () = Ppp_telemetry.Span.now_s ()

(* Runner.run minus telemetry: rebuild machine and flows outside the timed
   section, so the measured interval is Engine.run alone. [attrib] runs the
   window under the per-element profiler — the attribution arrays are built
   in the rebuild section, so the timed delta is the profiler's steady-state
   cost (counter touches plus lazily created latency histograms). *)
let measure ~(params : Runner.params) ~runs ~probe ?(attrib = false) name specs
    =
  let best = ref infinity in
  let best_alloc = ref 0.0 in
  let ops = ref 0 in
  let packets = ref 0 in
  for _ = 1 to runs do
    (* Rebuild from the same seed each repetition: identical simulation,
       fresh mutable state. *)
    let config = params.Runner.config in
    let topo = config.Ppp_hw.Machine.topology in
    let hier = Ppp_hw.Machine.build config in
    let heaps =
      Array.init topo.Ppp_hw.Topology.sockets (fun node ->
          Ppp_simmem.Heap.create ~node)
    in
    let rng = Ppp_util.Rng.create ~seed:params.Runner.seed in
    let flows =
      List.map
        (fun (spec : Runner.spec) ->
          let label = Ppp_apps.App.name spec.Runner.kind in
          let flow =
            Ppp_apps.App.flow spec.Runner.kind
              ~heap:heaps.(spec.Runner.data_node)
              ~rng:(Ppp_util.Rng.split rng)
              ~scale:config.Ppp_hw.Machine.scale ~label ()
          in
          {
            Ppp_hw.Engine.core = spec.Runner.core;
            label;
            source = Ppp_click.Flow.source flow;
          })
        specs
    in
    let probe =
      if not probe then None
      else
        Some
          {
            Ppp_hw.Engine.sample_cycles =
              max 1 (params.Runner.measure_cycles / 20);
            on_sample = (fun (_ : Ppp_hw.Engine.sample) -> ());
          }
    in
    let attrib =
      if not attrib then None
      else Some (Ppp_hw.Attrib.create ~cores:(Ppp_hw.Topology.cores topo))
    in
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    let t0 = wall () in
    let results =
      Ppp_hw.Engine.run ?probe ?attrib ~batch:params.Runner.batch hier ~flows
        ~warmup_cycles:params.Runner.warmup_cycles
        ~measure_cycles:params.Runner.measure_cycles
    in
    let dt = wall () -. t0 in
    let da = Gc.allocated_bytes () -. a0 in
    ops :=
      List.fold_left
        (fun acc (r : Ppp_hw.Engine.result) -> acc + r.Ppp_hw.Engine.engine_ops)
        0 results;
    packets :=
      List.fold_left
        (fun acc (r : Ppp_hw.Engine.result) -> acc + r.Ppp_hw.Engine.packets)
        0 results;
    if dt < !best then begin
      best := dt;
      best_alloc := da
    end
  done;
  {
    name;
    flows = List.length specs;
    runs;
    wall_s = !best;
    engine_ops = !ops;
    ops_per_sec = float_of_int !ops /. !best;
    allocated_bytes_per_op = !best_alloc /. float_of_int (max 1 !ops);
    window_packets = !packets;
  }

(* The allocation audit: repeated L1 hits on one resident line. The engine's
   cache-hit path must not touch the minor heap at all — one Some box per
   access at fig2 rates is hundreds of MB of garbage per experiment. *)
let audit_hit_path ~accesses =
  let hier = Ppp_hw.Machine.build Ppp_hw.Machine.scaled in
  let addr = 4096 in
  (* Warm: first access faults the line in, second hits in L1. *)
  ignore
    (Ppp_hw.Hierarchy.access hier ~core:0 ~write:false ~fn:Ppp_hw.Fn.none ~addr
       ~now:0
      : int);
  ignore
    (Ppp_hw.Hierarchy.access hier ~core:0 ~write:false ~fn:Ppp_hw.Fn.none ~addr
       ~now:10
      : int);
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let sink = ref 0 in
  for i = 1 to accesses do
    sink :=
      !sink
      + Ppp_hw.Hierarchy.access hier ~core:0 ~write:false ~fn:Ppp_hw.Fn.none
          ~addr ~now:(20 + (10 * i))
  done;
  let da = Gc.allocated_bytes () -. a0 in
  ignore (Sys.opaque_identity !sink : int);
  {
    accesses;
    allocated_bytes = da;
    bytes_per_access = da /. float_of_int accesses;
    (* Slack for the float boxed by the Gc.allocated_bytes call itself. *)
    zero_alloc = da <= 256.0;
  }

(* The classifier fast path's inner loop: Flow_table.find over a pool of
   pre-parsed packets, 3/4 of whose flows are installed. The table is sized
   above the pool so the hit fraction is exactly 3/4 by construction (no
   evictions), making the rate comparable across rounds. Like the hit-path
   audit, the loop must be allocation-free: the classifier experiment pays
   it once per simulated packet. *)
let bench_flow_table ~lookups =
  let heap = Ppp_simmem.Heap.create ~node:0 in
  let entries = 4096 in
  let ft = Ppp_classify.Flow_table.create ~heap ~entries () in
  let b = Ppp_hw.Trace.Builder.create () in
  let fn = Ppp_hw.Fn.none in
  let pool = 1024 in
  let pkts =
    Array.init pool (fun i ->
        let pkt = Ppp_net.Packet.create 60 in
        Ppp_traffic.Gen.fill_ipv4_udp pkt
          ~src:(0x0A000000 lor i)
          ~dst:(0x0B000000 lor (i * 131 land 0xFFFF))
          ~sport:(1024 + (i land 511))
          ~dport:443 ~wire_len:64;
        pkt)
  in
  Array.iteri
    (fun i pkt ->
      if i land 3 <> 0 then
        Ppp_classify.Flow_table.install ft b ~fn
          (Ppp_net.Flowid.of_packet pkt)
          (i land 0xFF))
    pkts;
  Ppp_hw.Trace.Builder.clear b;
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let t0 = wall () in
  let sink = ref 0 in
  for i = 0 to lookups - 1 do
    sink := !sink + Ppp_classify.Flow_table.find ft b ~fn pkts.(i land (pool - 1));
    Ppp_hw.Trace.Builder.clear b
  done;
  let dt = wall () -. t0 in
  let da = Gc.allocated_bytes () -. a0 in
  ignore (Sys.opaque_identity !sink : int);
  {
    lookups;
    entries = Ppp_classify.Flow_table.capacity ft;
    hit_fraction =
      float_of_int (Ppp_classify.Flow_table.hits ft) /. float_of_int lookups;
    ft_wall_s = dt;
    lookups_per_sec = float_of_int lookups /. dt;
    bytes_per_lookup = da /. float_of_int lookups;
    ft_zero_alloc = da <= 256.0;
  }

(* The Source.fill hot path: a heavy-tailed source (the worst of the
   built-in models — size-weighted sampling plus full frame construction)
   filling one preallocated packet in a tight loop. Every simulated packet
   of every experiment pays this path, and the built-in sources promise
   integer-only sampling — the audit catches any boxed float or closure
   sneaking into a fill. *)
let audit_source_fill ~fills =
  let ht =
    Ppp_traffic.Heavy_tail.create ~seed:42 ~flows:4096 ~alpha:1.1 ()
  in
  let rng = Ppp_util.Rng.create ~seed:7 in
  let src = Ppp_traffic.Heavy_tail.source ht ~rng () in
  let pkt = Ppp_net.Packet.create 60 in
  let fill_one () =
    match Ppp_traffic.Source.fill src pkt with
    | Ppp_traffic.Source.Filled -> ()
    | Ppp_traffic.Source.Exhausted -> assert false
  in
  (* Warm: fault in the source's arrays before the audited window. *)
  for _ = 1 to 1024 do
    fill_one ()
  done;
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let t0 = wall () in
  for _ = 1 to fills do
    fill_one ()
  done;
  let dt = wall () -. t0 in
  let da = Gc.allocated_bytes () -. a0 in
  {
    fills;
    sf_wall_s = dt;
    fills_per_sec = float_of_int fills /. dt;
    bytes_per_fill = da /. float_of_int fills;
    sf_zero_alloc = da <= 256.0;
  }

let target = Ppp_apps.App.IP
let competitor = Ppp_apps.App.MON

let run ?(quick = false) ?(runs = if quick then 1 else 3)
    ?(batch = Runner.Params.default.Runner.batch) () =
  let params =
    let p = { Runner.Params.default with Runner.batch = batch } in
    if quick then
      {
        p with
        Runner.warmup_cycles = p.Runner.warmup_cycles / 4;
        measure_cycles = p.Runner.measure_cycles / 4;
      }
    else p
  in
  let config = params.Runner.config in
  let solo = [ Runner.flow_on ~core:0 target ] in
  let contended =
    Sensitivity.placement ~config Sensitivity.Both
      ~n_competitors:(min 5 (Ppp_hw.Machine.cores_per_socket config - 1))
      ~competitor ~target
  in
  let workloads =
    [
      measure ~params ~runs ~probe:false "solo" solo;
      measure ~params ~runs ~probe:false "contended" contended;
      measure ~params ~runs ~probe:true "probed" contended;
      (* The contended workload again, under the per-element profiler: the
         simulation is byte-identical (attribution is pure observation), so
         the ops/s gap against "contended" is the profiler's whole price. *)
      measure ~params ~runs ~probe:false ~attrib:true "profiled" contended;
    ]
  in
  let ops name =
    match List.find_opt (fun m -> m.name = name) workloads with
    | Some m -> m.ops_per_sec
    | None -> 0.0
  in
  {
    config = config.Ppp_hw.Machine.name;
    seed = params.Runner.seed;
    quick;
    warmup_cycles = params.Runner.warmup_cycles;
    measure_cycles = params.Runner.measure_cycles;
    batch = params.Runner.batch;
    workloads;
    (* Fraction of contended throughput lost with profiling on; can dip
       slightly negative under wall-clock noise. *)
    profile_overhead = 1.0 -. (ops "profiled" /. ops "contended");
    hit = audit_hit_path ~accesses:1_000_000;
    flow_table = bench_flow_table ~lookups:1_000_000;
    source_fill = audit_source_fill ~fills:1_000_000;
  }

let json_of_measurement m =
  Ppp_telemetry.Json.Obj
    [
      ("name", Ppp_telemetry.Json.Str m.name);
      ("flows", Ppp_telemetry.Json.Int m.flows);
      ("runs", Ppp_telemetry.Json.Int m.runs);
      ("wall_s", Ppp_telemetry.Json.Float m.wall_s);
      ("engine_ops", Ppp_telemetry.Json.Int m.engine_ops);
      ("ops_per_sec", Ppp_telemetry.Json.Float m.ops_per_sec);
      ( "allocated_bytes_per_op",
        Ppp_telemetry.Json.Float m.allocated_bytes_per_op );
      ("window_packets", Ppp_telemetry.Json.Int m.window_packets);
    ]

let to_json r =
  Ppp_telemetry.Json.Obj
    [
      ("schema", Ppp_telemetry.Json.Str "ppp-bench-engine/5");
      ("tool", Ppp_telemetry.Json.Str "bench --perf-gate");
      ("config", Ppp_telemetry.Json.Str r.config);
      ("seed", Ppp_telemetry.Json.Int r.seed);
      ("quick", Ppp_telemetry.Json.Bool r.quick);
      ("warmup_cycles", Ppp_telemetry.Json.Int r.warmup_cycles);
      ("measure_cycles", Ppp_telemetry.Json.Int r.measure_cycles);
      ("batch", Ppp_telemetry.Json.Int r.batch);
      ("workloads", Ppp_telemetry.Json.Arr (List.map json_of_measurement r.workloads));
      ("profile_overhead", Ppp_telemetry.Json.Float r.profile_overhead);
      ( "hit_path",
        Ppp_telemetry.Json.Obj
          [
            ("accesses", Ppp_telemetry.Json.Int r.hit.accesses);
            ("allocated_bytes", Ppp_telemetry.Json.Float r.hit.allocated_bytes);
            ( "bytes_per_access",
              Ppp_telemetry.Json.Float r.hit.bytes_per_access );
            ("zero_alloc", Ppp_telemetry.Json.Bool r.hit.zero_alloc);
          ] );
      ( "flow_table",
        Ppp_telemetry.Json.Obj
          [
            ("lookups", Ppp_telemetry.Json.Int r.flow_table.lookups);
            ("entries", Ppp_telemetry.Json.Int r.flow_table.entries);
            ( "hit_fraction",
              Ppp_telemetry.Json.Float r.flow_table.hit_fraction );
            ("wall_s", Ppp_telemetry.Json.Float r.flow_table.ft_wall_s);
            ( "lookups_per_sec",
              Ppp_telemetry.Json.Float r.flow_table.lookups_per_sec );
            ( "bytes_per_lookup",
              Ppp_telemetry.Json.Float r.flow_table.bytes_per_lookup );
            ( "zero_alloc",
              Ppp_telemetry.Json.Bool r.flow_table.ft_zero_alloc );
          ] );
      ( "source_fill",
        Ppp_telemetry.Json.Obj
          [
            ("fills", Ppp_telemetry.Json.Int r.source_fill.fills);
            ("wall_s", Ppp_telemetry.Json.Float r.source_fill.sf_wall_s);
            ( "fills_per_sec",
              Ppp_telemetry.Json.Float r.source_fill.fills_per_sec );
            ( "bytes_per_fill",
              Ppp_telemetry.Json.Float r.source_fill.bytes_per_fill );
            ( "zero_alloc",
              Ppp_telemetry.Json.Bool r.source_fill.sf_zero_alloc );
          ] );
      ( "trajectory",
        Ppp_telemetry.Json.Arr
          (List.map
             (fun p ->
               Ppp_telemetry.Json.Obj
                 [
                   ("label", Ppp_telemetry.Json.Str p.label);
                   ( "contended_ops_per_sec",
                     Ppp_telemetry.Json.Float p.contended_ops_per_sec );
                   ( "contended_bytes_per_op",
                     Ppp_telemetry.Json.Float p.contended_bytes_per_op );
                   ( "hit_path_bytes_per_access",
                     Ppp_telemetry.Json.Float p.hit_path_bytes_per_access );
                 ])
             trajectory) );
    ]

let required_keys =
  [
    "schema"; "tool"; "config"; "seed"; "quick"; "warmup_cycles";
    "measure_cycles"; "batch"; "workloads"; "profile_overhead"; "hit_path";
    "flow_table"; "source_fill"; "trajectory";
  ]
