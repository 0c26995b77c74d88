(* One repetition of one benchmark workload, in a fresh process.

   Usage:
     bench.exe <workload> --seed N [--trace] [--warmup C] [--measure C]
               [--jobs J]

   Workloads: corun-l3, corun-mem, corun-attrib, corun-observed, sweep.
   The repetition
   prints one JSON object on stdout (see [emit]); perfbench/run.py starts
   one process per repetition and aggregates them.

   Everything here calls the simulator through its public modules only:
   Machine.build, App.flow, Engine.run, Flow.source, Hierarchy.access,
   the experiment Registry, Profile.record and Export. With --trace the
   same calls are wrapped with host timers and counters, so the per-layer
   split is measured from outside the program. *)

open Ppp_hw
module Runner = Ppp_core.Runner
module Registry = Ppp_experiments.Registry
module Recorder = Ppp_telemetry.Recorder

let now = Unix.gettimeofday

(* --- output ------------------------------------------------------------ *)

type value = F of float | I of int | S of string

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_value = function
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ -> "null"
  | I i -> string_of_int i
  | S s -> json_string s

let emit fields =
  print_string "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then print_string ", ";
      print_string (json_string k ^ ": " ^ json_value v))
    fields;
  print_endline "}"

(* VmHWM: the process's peak resident set so far. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let mb = scan () in
      close_in ic;
      mb

(* --- host-speed reference ---------------------------------------------- *)

(* A fixed piece of work that shares no code with the simulator: fill a
   fresh 64 MB array, then read-modify-write 2M pseudo-random words of it.
   On a shared host the simulator's speed drifts with its neighbours' use
   of the memory system, while pure compute does not; this reference is
   memory-bound and pays fresh pages as a repetition does, so it drifts
   with the simulator. run.py scales the timings by it. It runs after the
   timed section and after the peak RSS is read. *)
let reference_once () =
  let t0 = now () in
  let a = Array.make (1 lsl 23) 1 in
  let mask = Array.length a - 1 in
  let x = ref 88172645463325252 and s = ref 0 in
  for _ = 1 to 2_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let i = !x land mask in
    s := !s + a.(i);
    a.(i) <- !s
  done;
  ignore (Sys.opaque_identity !s);
  now () -. t0

(* On as many domains at once as the workload runs, since concurrent
   domains share the memory system the reference measures: their mean
   time. *)
let reference_s ~domains =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn reference_once) in
  let t = reference_once () in
  List.fold_left (fun acc d -> acc +. Domain.join d) t others
  /. float_of_int domains

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec tree_bytes path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> acc + tree_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

(* --- simulated digest -------------------------------------------------- *)

(* Everything a speed-only change must leave identical: per flow, its
   window packets, engine ops and every counter, per-function breakdowns
   included (keyed by tag name, not registration order). *)
let digest (results : Engine.result list) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (r : Engine.result) ->
      let c = r.Engine.counters in
      Printf.bprintf b "%d %s pkts=%d ops=%d cyc=%d instr=%d l1=%d l2=%d \
                        l3h=%d l3m=%d rd=%d wr=%d cp=%d\n"
        r.Engine.core r.Engine.label r.Engine.packets r.Engine.engine_ops
        r.Engine.window_cycles (Counters.instructions c) (Counters.l1_hits c)
        (Counters.l2_hits c) (Counters.l3_hits c) (Counters.l3_misses c)
        (Counters.reads c) (Counters.writes c) (Counters.packets c);
      let fns =
        List.init (Fn.count ()) (fun i -> i)
        |> List.filter (fun f -> Counters.fn_refs c f > 0)
        |> List.map (fun f ->
               Printf.sprintf "%s:%d/%d/%d/%d" (Fn.name f) (Counters.fn_refs c f)
                 (Counters.fn_l3_refs c f) (Counters.fn_l3_hits c f)
                 (Counters.fn_l3_misses c f))
        |> List.sort compare
      in
      Buffer.add_string b (String.concat " " fns);
      Buffer.add_char b '\n')
    results;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- co-run workloads -------------------------------------------------- *)

(* Attributed is L3 under the per-element profiler alone (the perf gate's
   "profiled"); Observed is L3 as `repro run --profile --metrics` runs it. *)
type corun = L3 | Mem | Attributed | Observed

let corun_specs config = function
  | L3 | Attributed | Observed ->
      (* Fig. 2 contention, the perf gate's "contended" workload. *)
      Ppp_core.Sensitivity.placement ~config Ppp_core.Sensitivity.Both
        ~n_competitors:(min 5 (Machine.cores_per_socket config - 1))
        ~competitor:Ppp_apps.App.MON ~target:Ppp_apps.App.IP
  | Mem ->
      (* Fig. 3 memctrl-only: competitors on socket 1, data on node 0. *)
      Ppp_core.Sensitivity.placement ~config Ppp_core.Sensitivity.Memctrl_only
        ~n_competitors:(min 5 (Machine.cores_per_socket config - 1))
        ~competitor:Ppp_apps.App.RE ~target:Ppp_apps.App.VPN

(* Host-side counters of the traced run, filled by the source wrapper. The
   first [2 * capture] ops of each core are copied for the hierarchy
   replay: the first half warms a fresh machine, the second is timed.
   [book_s] is the wrapper's own bookkeeping, which runs inside Engine.run
   and is taken out of the engine's share. *)
type tracer = {
  mutable source_s : float;
  mutable book_s : float;
  mutable items : int;
  mutable gen_packets : int;
  mutable ops : int;
  mutable mem_refs : int;
  mutable dmas : int;
  capture : int;
  captured : (int * int array) Queue.t;  (* (core, packed ops), call order *)
  captured_ops : int array;  (* per core *)
}

let tracer ~cores ~capture =
  {
    source_s = 0.0;
    book_s = 0.0;
    items = 0;
    gen_packets = 0;
    ops = 0;
    mem_refs = 0;
    dmas = 0;
    capture;
    captured = Queue.create ();
    captured_ops = Array.make cores 0;
  }

let trace_of_item = function
  | Engine.Packet t | Engine.Reordered t -> (true, t)
  | Engine.Idle t -> (false, t)

let count_dma t =
  let n = ref 0 in
  let raw = Trace.raw_ops t in
  for i = 0 to Trace.length t - 1 do
    if Trace.raw_kind raw.(i) = Trace.k_dma then incr n
  done;
  !n

(* Wraps a flow's Flow.source with a host timer and per-item trace counts.
   Views alias the builder, so captured items are copied on the spot. *)
let traced_source tr ~core (src : Engine.source) : Engine.source =
 fun cycle ->
  let t0 = now () in
  let item = src cycle in
  let t1 = now () in
  tr.source_s <- tr.source_s +. (t1 -. t0);
  let is_packet, t = trace_of_item item in
  let len = Trace.length t in
  tr.items <- tr.items + 1;
  if is_packet then tr.gen_packets <- tr.gen_packets + 1;
  tr.ops <- tr.ops + len;
  tr.mem_refs <- tr.mem_refs + Trace.mem_refs t;
  tr.dmas <- tr.dmas + count_dma t;
  if tr.captured_ops.(core) < 2 * tr.capture then begin
    Queue.add (core, Array.sub (Trace.raw_ops t) 0 len) tr.captured;
    tr.captured_ops.(core) <- tr.captured_ops.(core) + len
  end;
  tr.book_s <- tr.book_s +. (now () -. t1);
  item

(* Replays captured items straight through Hierarchy.access / dma_write on
   a fresh machine, in the order the engine asked for them. Each core's
   first [capture] ops warm the machine untimed; the rest are timed. No
   engine interleaving, so the per-access cost is an estimate. *)
let hierarchy_replay config tr =
  let hier = Machine.build config in
  let cores = Topology.cores config.Machine.topology in
  let clocks = Array.make cores 0 in
  let seen = Array.make cores 0 in
  let timed_s = ref 0.0 in
  let accesses = ref 0 in
  Queue.iter
    (fun (core, ops) ->
      let timed = seen.(core) >= tr.capture in
      seen.(core) <- seen.(core) + Array.length ops;
      let t0 = now () in
      let n = ref 0 in
      for i = 0 to Array.length ops - 1 do
        let w = ops.(i) in
        let k = Trace.raw_kind w in
        if k = Trace.k_read || k = Trace.k_write then begin
          clocks.(core) <-
            clocks.(core)
            + Hierarchy.access hier ~core ~write:(k = Trace.k_write)
                ~fn:(Trace.raw_fn w) ~addr:(Trace.raw_payload w)
                ~now:clocks.(core);
          incr n
        end
        else if k = Trace.k_dma then begin
          Hierarchy.dma_write hier ~addr:(Trace.raw_payload w)
            ~now:clocks.(core);
          incr n
        end
        else clocks.(core) <- clocks.(core) + Trace.raw_payload w
      done;
      if timed then begin
        timed_s := !timed_s +. (now () -. t0);
        accesses := !accesses + !n
      end)
    tr.captured;
  !timed_s *. 1e9 /. float_of_int (max 1 !accesses)

(* Setup, exactly as Runner.run does it: machine, per-node heaps, then one
   App.flow per spec from split streams of the seed. Returns the machine,
   the (spec, label, flow) triples and the two phase times. *)
let setup ~config ~seed kind =
  let topo = config.Machine.topology in
  let t0 = now () in
  let hier = Machine.build config in
  let t1 = now () in
  let heaps =
    Array.init topo.Topology.sockets (fun node -> Ppp_simmem.Heap.create ~node)
  in
  let rng = Ppp_util.Rng.create ~seed in
  let built =
    List.map
      (fun (spec : Runner.spec) ->
        let label = Ppp_apps.App.name spec.Runner.kind in
        ( spec,
          label,
          Ppp_apps.App.flow spec.Runner.kind ~heap:heaps.(spec.Runner.data_node)
            ~rng:(Ppp_util.Rng.split rng) ~scale:config.Machine.scale ~label ()
        ))
      (corun_specs config kind)
  in
  (hier, built, t1 -. t0, now () -. t1)

(* Where corun-observed's exports go; deleted once their size is taken. *)
let export_dir = "_perfbench_out"

(* One co-run: (the repetition's fields, the traced per-layer rows). *)
let corun_once ~config ~seed ~warmup ~measure ~traced ~capture kind =
  let topo = config.Machine.topology in
  let hier, built, machine_s, flows_s = setup ~config ~seed kind in
  let tr = tracer ~cores:(Topology.cores topo) ~capture in
  let flows =
    List.map
      (fun ((spec : Runner.spec), label, flow) ->
        let source = Ppp_click.Flow.source flow in
        let core = spec.Runner.core in
        {
          Engine.core;
          label;
          source = (if traced then traced_source tr ~core source else source);
        })
      built
  in
  let observed = kind = Observed in
  let cores = Topology.cores topo in
  let attrib =
    if observed || kind = Attributed then Some (Attrib.create ~cores) else None
  in
  let sample_cycles = max 1 (measure / 20) in
  let sampler =
    if observed then
      Some (Ppp_telemetry.Sampler.create ~cell:"corun" ~sample_cycles)
    else None
  in
  let samples = ref 0 in
  let on_sample_s = ref 0.0 in
  let probe =
    Option.map
      (fun s ->
        let p = Ppp_telemetry.Sampler.probe s in
        if not traced then p
        else
          {
            p with
            Engine.on_sample =
              (fun x ->
                let t = now () in
                p.Engine.on_sample x;
                on_sample_s := !on_sample_s +. (now () -. t);
                incr samples);
          })
      sampler
  in
  if observed then Recorder.configure ~sample_cycles ();
  let w0 = Gc.minor_words () in
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t3 = now () in
  let results =
    Engine.run ?probe ?attrib hier ~flows ~warmup_cycles:warmup
      ~measure_cycles:measure
  in
  let t4 = now () in
  let a1 = Gc.allocated_bytes () in
  let g1 = Gc.quick_stat () in
  let w1 = Gc.minor_words () in
  (* corun-observed: what `repro run --profile --metrics` does after the
     engine returns. *)
  let record_s, write_s, bytes =
    match (attrib, sampler) with
    | Some at, Some s ->
        let r0 = now () in
        Ppp_telemetry.Profile.record at ~cell:"corun" ~flow:(fun ~core ->
            match
              List.find_opt (fun (f : Engine.flow) -> f.Engine.core = core) flows
            with
            | Some f -> f.Engine.label
            | None -> "(idle)");
        Recorder.add_series
          (Ppp_telemetry.Sampler.series s ~experiment:"corun"
             ~freq_hz:config.Machine.costs.Costs.freq_hz);
        let r1 = now () in
        let run =
          {
            Ppp_telemetry.Manifest.tool = "perfbench";
            machine = config.Machine.name;
            seed;
            warmup_cycles = warmup;
            measure_cycles = measure;
            jobs_configured = 1;
            jobs_effective = 1;
            sample_cycles = Recorder.sampling ();
          }
        in
        Ppp_telemetry.Export.write_metrics_dir ~dir:export_dir ~run;
        Ppp_telemetry.Export.write_profile_dir ~dir:export_dir;
        let r2 = now () in
        let bytes = tree_bytes export_dir in
        remove_tree export_dir;
        (r1 -. r0, r2 -. r1, bytes)
    | _ -> (0.0, 0.0, 0)
  in
  let run_s = t4 -. t3 in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let packets = sum (fun r -> r.Engine.packets) in
  let ops = sum (fun r -> r.Engine.engine_ops) in
  let layer =
    if not traced then []
    else
      let access_ns = hierarchy_replay config tr in
      let csum f = sum (fun r -> f r.Engine.counters) in
      let l3h = csum Counters.l3_hits and l3m = csum Counters.l3_misses in
      let fops = float_of_int (max 1 ops) in
      let gen = float_of_int (max 1 tr.gen_packets) in
      (* Engine.run time spent in the engine itself: without the sources
         and without the wrapper's own bookkeeping. *)
      let engine_s = run_s -. tr.book_s in
      let replay_s = engine_s -. tr.source_s in
      let hier_s =
        access_ns *. 1e-9 *. float_of_int (tr.mem_refs + tr.dmas)
      in
      [
        ("machine.build_s", F machine_s);
        ("app.flow_build_s", F flows_s);
        ("flow.source_s", F tr.source_s);
        ("flow.source_ns_per_item",
         F (tr.source_s *. 1e9 /. float_of_int (max 1 tr.items)));
        ("flow.source_share", F (tr.source_s /. engine_s));
        ("trace.ops_per_packet", F (float_of_int tr.ops /. gen));
        ("trace.mem_refs_per_packet", F (float_of_int tr.mem_refs /. gen));
        ("trace.dma_per_packet", F (float_of_int tr.dmas /. gen));
        ("engine.run_s", F engine_s);
        ("engine.ops", I ops);
        ("engine.packets", I packets);
        ("engine.replay_ns_per_op", F (replay_s *. 1e9 /. fops));
        ("engine.sched_ns_per_op", F ((replay_s -. hier_s) *. 1e9 /. fops));
        ("hierarchy.access_ns", F access_ns);
        ("hierarchy.l1_hits", I (csum Counters.l1_hits));
        ("hierarchy.l2_hits", I (csum Counters.l2_hits));
        ("hierarchy.l3_hits", I l3h);
        ("hierarchy.l3_misses", I l3m);
        ("hierarchy.l3_miss_ratio",
         F (float_of_int l3m /. float_of_int (max 1 (l3h + l3m))));
        ("hierarchy.writes", I (csum Counters.writes));
        ("memctrl.transactions.node0",
         I (Hierarchy.memctrl_transactions hier ~node:0));
        ("memctrl.transactions.node1",
         I
           (if topo.Topology.sockets > 1 then
              Hierarchy.memctrl_transactions hier ~node:1
            else 0));
        ("sampler.samples", I !samples);
        ("sampler.on_sample_s", F !on_sample_s);
        ("profile.record_s", F record_s);
        ("export.write_s", F write_s);
        ("export.bytes", I bytes);
      ]
  in
  ( [
      ("setup_s", F (machine_s +. flows_s));
      ("run_s", F run_s);
      ("wall_s", F (run_s +. record_s +. write_s));
      ("packets", I packets);
      ("ops", I ops);
      ("digest", S (digest results));
      ("alloc_bytes", F (a1 -. a0));
      ("minor_words", F (w1 -. w0));
      ("major_collections", I (g1.Gc.major_collections - g0.Gc.major_collections));
    ],
    layer )

(* --- sweep ------------------------------------------------------------- *)

let golden_dir = Filename.concat "test" "golden"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Host-side numbers from the recorder's runner and pool spans.

   A runner span carries only its cell label, seed, flow count and machine
   name, which runs with different machine costs share (ablation's delta
   and MLP sweeps). The series the recorder's sampler keeps for every
   runner run carry its simulated result, per core. So per cell label the
   distinct runs are the larger of its distinct span keys and its distinct
   results on any one core, and the cell's runner time counts as repeated
   in proportion to its runs beyond those. *)
let span_layer ~jobs ~wall =
  let spans = Recorder.spans () in
  let runner =
    List.filter (fun s -> s.Ppp_telemetry.Span.cat = "runner") spans
  in
  let pool =
    List.filter (fun s -> s.Ppp_telemetry.Span.cat = "parallel") spans
  in
  let distinct keys = List.length (List.sort_uniq compare keys) in
  let cells =
    List.sort_uniq compare
      (List.map (fun (s : Ppp_telemetry.Span.t) -> s.name) runner)
  in
  let results =
    List.map
      (fun (ts : Ppp_telemetry.Timeseries.t) ->
        ( (if ts.cell = "" then "runner.run" else ts.cell),
          ts.core,
          ts.slices ))
      (Recorder.series ())
  in
  let runner_s = ref 0.0 and repeat_s = ref 0.0 and distinct_runs = ref 0 in
  List.iter
    (fun cell ->
      let mine =
        List.filter (fun (s : Ppp_telemetry.Span.t) -> s.name = cell) runner
      in
      let n = List.length mine in
      let dur =
        List.fold_left (fun a (s : Ppp_telemetry.Span.t) -> a +. s.dur_s) 0.0 mine
      in
      let by_core =
        List.filter_map
          (fun (c, core, r) -> if c = cell then Some (core, r) else None)
          results
      in
      let cores = List.sort_uniq compare (List.map fst by_core) in
      let by_result =
        List.fold_left
          (fun a core ->
            max a
              (distinct
                 (List.filter_map
                    (fun (c, r) -> if c = core then Some r else None)
                    by_core)))
          0 cores
      in
      let by_key =
        distinct (List.map (fun (s : Ppp_telemetry.Span.t) -> s.args) mine)
      in
      let d = min n (max by_key by_result) in
      distinct_runs := !distinct_runs + d;
      runner_s := !runner_s +. dur;
      repeat_s := !repeat_s +. (dur *. float_of_int (n - d) /. float_of_int n))
    cells;
  (* Nested pools run their items inline inside an outer item, so a
     domain's busy time is the union of its spans, not their sum. *)
  let busy =
    let by_start =
      List.sort
        (fun (a : Ppp_telemetry.Span.t) (b : Ppp_telemetry.Span.t) ->
          compare (a.domain, a.start_s) (b.domain, b.start_s))
        pool
    in
    let total = ref 0.0 and cur = ref (-1, 0.0, 0.0) in
    let close () =
      let _, lo, hi = !cur in
      total := !total +. (hi -. lo)
    in
    List.iter
      (fun (s : Ppp_telemetry.Span.t) ->
        let d, lo, hi = !cur in
        let s_end = s.start_s +. s.dur_s in
        if d = s.domain && s.start_s <= hi then cur := (d, lo, Float.max hi s_end)
        else begin
          close ();
          cur := (s.domain, s.start_s, s_end)
        end)
      by_start;
    close ();
    !total
  in
  let queue =
    List.fold_left (fun a (s : Ppp_telemetry.Span.t) -> a +. s.queue_s) 0.0 pool
  in
  let cls = Recorder.classifier () in
  let lookups = List.fold_left (fun a c -> a + c.Recorder.cls_lookups) 0 cls in
  let hits = List.fold_left (fun a c -> a + c.Recorder.cls_hits) 0 cls in
  [
    ("runner.runs", I (List.length runner));
    ("runner.distinct_runs", I !distinct_runs);
    ("runner.repeat_share", F (!repeat_s /. Float.max 1e-9 !runner_s));
    ("runner.s", F !runner_s);
    ("parallel.items", I (List.length pool));
    ("parallel.queue_s", F queue);
    ("parallel.busy_frac", F (busy /. (wall *. float_of_int jobs)));
    ("classify.hit_ratio",
     F (float_of_int hits /. float_of_int (max 1 lookups)));
    ("classify.upcalls",
     I (List.fold_left (fun a c -> a + c.Recorder.cls_upcalls) 0 cls));
    ("traffic.reorders",
     I
       (List.fold_left (fun a t -> a + t.Recorder.tr_reorders) 0
          (Recorder.traffic ())));
  ]

(* The sweep's experiments build their machines and flows inside
   Runner.run, with no setup boundary visible from outside. Its setup_s
   is the median setup of the tiny-machine co-run every sweep cell
   resembles (fig2's contention), repeated after the timed section so the
   sweep itself stays cold. The traced run also replays that co-run once
   for the engine-side rows. *)
let tiny_setups = 15

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let tiny_setup_s ~seed =
  median
    (List.init tiny_setups (fun _ ->
         let _, _, m, f = setup ~config:Machine.tiny ~seed L3 in
         m +. f))

let tiny_corun_layer ~seed =
  let p = Runner.Params.quick in
  snd
    (corun_once ~config:Machine.tiny ~seed ~warmup:p.Runner.warmup_cycles
       ~measure:p.Runner.measure_cycles ~traced:true ~capture:2_000 L3)

(* One slice per measurement window: the cheapest use of the recorder's
   sampler, there only to count the packets each runner run completes
   (monitor and traffic cells, which call Engine.run directly, are not
   counted). *)
let window_slice = 1 lsl 40

let sweep ~seed ~jobs ~traced =
  Ppp_core.Parallel.set_jobs jobs;
  Recorder.configure ~sample_cycles:window_slice ~spans:traced ();
  let params = Runner.Params.(quick |> with_seed seed) in
  let check_golden = seed = Runner.Params.quick.Runner.seed in
  let failed = ref 0 in
  let texts = Buffer.create 65536 in
  let per_id = ref [] in
  let t0 = now () in
  List.iter
    (fun (e : Registry.t) ->
      let id = e.Registry.id in
      Recorder.set_experiment id;
      let s0 = now () in
      (match e.Registry.run ~params () with
      | out ->
          let text = out.Ppp_experiments.Output.text in
          Printf.bprintf texts "=== %s\n%s" id text;
          if check_golden then begin
            let path = Filename.concat golden_dir (id ^ ".expected") in
            let ok =
              match read_file path with
              | expected -> String.equal expected text
              | exception Sys_error _ -> false
            in
            if not ok then begin
              incr failed;
              Printf.eprintf "perfbench: %s differs from %s\n%!" id path
            end
          end
      | exception ex ->
          incr failed;
          Printf.eprintf "perfbench: %s raised %s\n%!" id
            (Printexc.to_string ex));
      per_id := (id, now () -. s0) :: !per_id)
    Registry.all;
  let wall = now () -. t0 in
  let packets =
    List.fold_left
      (fun a (ts : Ppp_telemetry.Timeseries.t) ->
        List.fold_left
          (fun a (sl : Ppp_telemetry.Timeseries.slice) -> a + sl.packets)
          a ts.slices)
      0 (Recorder.series ())
  in
  Recorder.set_experiment "";
  let layer =
    if not traced then []
    else
      List.rev_map (fun (id, s) -> ("registry." ^ id ^ "_s", F s)) !per_id
      @ span_layer ~jobs ~wall
      @ tiny_corun_layer ~seed
  in
  [
    ("attempted", I (List.length Registry.all));
    ("failed", I !failed);
    ("wall_s", F wall);
    ("packets", I packets);
    ("setup_s", F (tiny_setup_s ~seed));
    ("digest", S (Digest.to_hex (Digest.string (Buffer.contents texts))));
  ]
  @ layer

(* --- main -------------------------------------------------------------- *)

let () =
  let workload = ref "" in
  let seed = ref 42 in
  let traced = ref false in
  let warmup = ref Runner.Params.default.Runner.warmup_cycles in
  let measure = ref Runner.Params.default.Runner.measure_cycles in
  let jobs = ref 2 in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set traced, " per-layer host-time split");
      ("--warmup", Arg.Set_int warmup, "C warmup window (cycles)");
      ("--measure", Arg.Set_int measure, "C measurement window (cycles)");
      ("--jobs", Arg.Set_int jobs, "J sweep domains");
    ]
    (fun w -> workload := w)
    "bench.exe <corun-l3|corun-mem|corun-attrib|corun-observed|sweep> \
     [options]";
  let corun kind =
    let fields, layer =
      corun_once ~config:Machine.scaled ~seed:!seed ~warmup:!warmup
        ~measure:!measure ~traced:!traced ~capture:30_000 kind
    in
    fields @ layer
  in
  let fields =
    match !workload with
    | "corun-l3" -> corun L3
    | "corun-mem" -> corun Mem
    | "corun-attrib" -> corun Attributed
    | "corun-observed" -> corun Observed
    | "sweep" -> sweep ~seed:!seed ~jobs:!jobs ~traced:!traced
    | w ->
        Printf.eprintf "bench.exe: unknown workload %S\n" w;
        exit 2
  in
  let rss = peak_rss_mb () in
  (* A sweep takes several seconds, a co-run about one: sample the host's
     speed more than once per sweep. *)
  let sweep = !workload = "sweep" in
  let refs = if sweep then 4 else 1 in
  let domains = if sweep then !jobs else 1 in
  let ref_s =
    List.fold_left ( +. ) 0.0
      (List.init refs (fun _ -> reference_s ~domains))
    /. float_of_int refs
  in
  emit
    (fields
    @ [
        ("ocaml", S Sys.ocaml_version);
        ("peak_rss_mb", F rss);
        ("ref_s", F ref_s);
      ])
