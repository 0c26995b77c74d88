type spec = { kind : Ppp_apps.App.kind; core : int; data_node : int }

let flow_on ?node ~core kind =
  let data_node =
    match node with
    | Some n -> n
    | None ->
        let topo = Ppp_hw.Machine.scaled.Ppp_hw.Machine.topology in
        Ppp_hw.Topology.socket_of_core topo core
  in
  { kind; core; data_node }

type params = {
  config : Ppp_hw.Machine.config;
  seed : int;
  warmup_cycles : int;
  measure_cycles : int;
  batch : int;
  cell : string;
  profile : bool;
}

module Params = struct
  type t = params

  let default =
    {
      config = Ppp_hw.Machine.scaled;
      seed = 42;
      warmup_cycles = 3_000_000;
      measure_cycles = 10_000_000;
      batch = 32;
      cell = "";
      profile = false;
    }

  let quick =
    {
      default with
      config = Ppp_hw.Machine.tiny;
      warmup_cycles = 300_000;
      measure_cycles = 1_000_000;
    }

  let with_config config p = { p with config }
  let with_seed seed p = { p with seed }

  let with_windows ~warmup ~measure p =
    { p with warmup_cycles = warmup; measure_cycles = measure }

  let with_batch batch p = { p with batch }
  let with_profile profile p = { p with profile }
end

let check_specs config specs =
  if specs = [] then invalid_arg "Runner.run: no flows";
  let topo = config.Ppp_hw.Machine.topology in
  List.iter
    (fun spec ->
      if spec.core < 0 || spec.core >= Ppp_hw.Topology.cores topo then
        invalid_arg "Runner.run: core out of range";
      if spec.data_node < 0 || spec.data_node >= topo.Ppp_hw.Topology.sockets
      then invalid_arg "Runner.run: node out of range")
    specs

(* One simulation. Returns the results and the series the telemetry sampler
   collected ([] when sampling is off); the caller hands the series to the
   recorder. *)
let simulate params ?probe ?wrap specs =
  let config = params.config in
  let topo = config.Ppp_hw.Machine.topology in
  let hier = Ppp_hw.Machine.build config in
  let heaps =
    Array.init topo.Ppp_hw.Topology.sockets (fun node ->
        Ppp_simmem.Heap.create ~node)
  in
  let rng = Ppp_util.Rng.create ~seed:params.seed in
  let flows =
    List.map
      (fun spec ->
        let label = Ppp_apps.App.name spec.kind in
        let flow =
          Ppp_apps.App.flow spec.kind ~heap:heaps.(spec.data_node)
            ~rng:(Ppp_util.Rng.split rng)
            ~scale:config.Ppp_hw.Machine.scale ~label ()
        in
        let source = Ppp_click.Flow.source flow in
        let source =
          match wrap with
          | Some w -> w hier ~core:spec.core source
          | None -> source
        in
        { Ppp_hw.Engine.core = spec.core; label; source })
      specs
  in
  (* Telemetry is a no-op unless the CLI configured the recorder. The
     sampler observes the cell's counters in simulated time (deterministic);
     the span observes the cell itself in wall-clock time. *)
  let sampler =
    match Ppp_telemetry.Recorder.sampling () with
    | Some sample_cycles ->
        Some (Ppp_telemetry.Sampler.create ~cell:params.cell ~sample_cycles)
    | None -> None
  in
  let sampler_probe = Option.map Ppp_telemetry.Sampler.probe sampler in
  (* Tee the caller's probe with the telemetry sampler. The engine supports a
     single probe, and the two consumers must agree on the slice grid for the
     sample stream to mean the same thing to both. *)
  let probe =
    match (probe, sampler_probe) with
    | None, p | p, None -> p
    | Some a, Some b ->
        if a.Ppp_hw.Engine.sample_cycles <> b.Ppp_hw.Engine.sample_cycles then
          invalid_arg
            "Runner.run: probe sample_cycles must match the telemetry \
             recorder's sampling period";
        Some
          {
            Ppp_hw.Engine.sample_cycles = a.Ppp_hw.Engine.sample_cycles;
            on_sample =
              (fun s ->
                a.Ppp_hw.Engine.on_sample s;
                b.Ppp_hw.Engine.on_sample s);
          }
  in
  (* Attribution accumulators exist only when the caller asked to profile;
     the engine's unprofiled path is the hot one and stays untouched. *)
  let attrib =
    if params.profile then
      Some (Ppp_hw.Attrib.create ~cores:(Ppp_hw.Topology.cores topo))
    else None
  in
  let results =
    Ppp_hw.Engine.run ?probe ?attrib ~batch:params.batch hier ~flows
      ~warmup_cycles:params.warmup_cycles
      ~measure_cycles:params.measure_cycles
  in
  (match attrib with
  | Some at ->
      let label_of_core core =
        match
          List.find_opt
            (fun (f : Ppp_hw.Engine.flow) -> f.Ppp_hw.Engine.core = core)
            flows
        with
        | Some f -> f.Ppp_hw.Engine.label
        | None -> "(idle)"
      in
      Ppp_telemetry.Profile.record at
        ~cell:(if params.cell = "" then "run" else params.cell)
        ~flow:(fun ~core -> label_of_core core)
  | None -> ());
  let series =
    match sampler with
    | Some s ->
        Ppp_telemetry.Sampler.series s
          ~experiment:(Ppp_telemetry.Recorder.current_experiment ())
          ~freq_hz:config.Ppp_hw.Machine.costs.Ppp_hw.Costs.freq_hz
    | None -> []
  in
  (results, series)

(* --- the run cache ---------------------------------------------------

   A run is a pure function of its parameters (less the telemetry-only
   [cell]), its specs and the recorder's sampling period, which decides
   the series the run reports. An entry holds the run's results (latency
   histograms as sparse snapshots) and series marshaled into one string:
   the GC never scans it, and every hit unmarshals fresh mutable values. *)

type key = { k_params : params; k_specs : spec list; k_sampling : int option }

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal = ( = )

  (* Deep enough to reach the specs and the machine costs. *)
  let hash = Hashtbl.hash_param 64 256
end)

(* An [Engine.result] as an entry keeps it: latency histograms sparse. *)
type packed = {
  p_core : int;
  p_label : string;
  p_packets : int;
  p_window_cycles : int;
  p_throughput_pps : float;
  p_counters : Ppp_hw.Counters.t;
  p_l3_refs_per_sec : float;
  p_l3_hits_per_sec : float;
  p_latency : Ppp_util.Histogram.sparse;
  p_latency_inorder : Ppp_util.Histogram.sparse;
  p_latency_reordered : Ppp_util.Histogram.sparse;
  p_engine_ops : int;
}

let pack (r : Ppp_hw.Engine.result) =
  let sparse = Ppp_util.Histogram.to_sparse in
  {
    p_core = r.core;
    p_label = r.label;
    p_packets = r.packets;
    p_window_cycles = r.window_cycles;
    p_throughput_pps = r.throughput_pps;
    p_counters = r.counters;
    p_l3_refs_per_sec = r.l3_refs_per_sec;
    p_l3_hits_per_sec = r.l3_hits_per_sec;
    p_latency = sparse r.latency;
    p_latency_inorder = sparse r.latency_inorder;
    p_latency_reordered = sparse r.latency_reordered;
    p_engine_ops = r.engine_ops;
  }

let unpack p =
  let dense = Ppp_util.Histogram.of_sparse in
  {
    Ppp_hw.Engine.core = p.p_core;
    label = p.p_label;
    packets = p.p_packets;
    window_cycles = p.p_window_cycles;
    throughput_pps = p.p_throughput_pps;
    counters = p.p_counters;
    l3_refs_per_sec = p.p_l3_refs_per_sec;
    l3_hits_per_sec = p.p_l3_hits_per_sec;
    latency = dense p.p_latency;
    latency_inorder = dense p.p_latency_inorder;
    latency_reordered = dense p.p_latency_reordered;
    engine_ops = p.p_engine_ops;
  }

type entry = {
  blob : string;  (** [packed list * Timeseries.t list], marshaled *)
  cycles : int;  (** simulated core-cycles the run took *)
}

let entry_of params results series =
  {
    blob =
      Marshal.to_string
        ((List.map pack results, series)
          : packed list * Ppp_telemetry.Timeseries.t list)
        [];
    cycles =
      List.fold_left
        (fun acc (r : Ppp_hw.Engine.result) ->
          acc + params.warmup_cycles + r.window_cycles)
        0 results;
  }

let contents e : packed list * Ppp_telemetry.Timeseries.t list =
  Marshal.from_string e.blob 0

(* A promise: the first caller of a key simulates; later callers of the
   same key wait on [settled] (under [lock]) until it is [Ready], or retry
   when the simulation raised. *)
type state = Pending | Ready of entry | Failed
type promise = { mutable state : state; settled : Condition.t }
type cache_stats = Ppp_telemetry.Manifest.run_cache = {
  hits : int;
  misses : int;
  saved_cycles : int;
}

let lock = Mutex.create ()
let table : promise Tbl.t = Tbl.create 256
let stats = ref Ppp_telemetry.Manifest.no_run_cache

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let cache_stats () = locked (fun () -> !stats)

let reset_cache () =
  locked (fun () ->
      Tbl.reset table;
      stats := Ppp_telemetry.Manifest.no_run_cache)

(* [`Hit entry], or [`Miss promise] which the caller must settle with
   [fulfil] or [abandon]. *)
let rec claim key =
  let outcome =
    locked (fun () ->
        match Tbl.find_opt table key with
        | None ->
            let p = { state = Pending; settled = Condition.create () } in
            Tbl.add table key p;
            `Miss p
        | Some p ->
            while p.state == Pending do
              Condition.wait p.settled lock
            done;
            (match p.state with
            | Ready e ->
                let s = !stats in
                stats :=
                  {
                    s with
                    hits = s.hits + 1;
                    saved_cycles = s.saved_cycles + e.cycles;
                  };
                `Hit e
            | Pending | Failed -> `Retry))
  in
  match outcome with `Retry -> claim key | (`Hit _ | `Miss _) as o -> o

let settle p state =
  p.state <- state;
  Condition.broadcast p.settled

let fulfil p entry =
  locked (fun () ->
      stats := { !stats with misses = !stats.misses + 1 };
      settle p (Ready entry))

let abandon key p =
  locked (fun () ->
      Tbl.remove table key;
      settle p Failed)

(* Hands a run's series to the recorder and records its wall-clock span:
   category "runner" for a simulation, "runcache" for a hit. *)
let report ~cat params specs t_wall series =
  Ppp_telemetry.Recorder.add_series series;
  if Ppp_telemetry.Recorder.spans_enabled () then
    Ppp_telemetry.Recorder.add_span
      {
        Ppp_telemetry.Span.name =
          (if params.cell = "" then "runner.run" else params.cell);
        cat;
        domain = (Domain.self () :> int);
        start_s = t_wall;
        dur_s = Ppp_telemetry.Span.now_s () -. t_wall;
        queue_s = 0.0;
        args =
          [
            ("seed", string_of_int params.seed);
            ("flows", string_of_int (List.length specs));
            ("config", params.config.Ppp_hw.Machine.name);
          ];
      }

let run ?(params = Params.default) ?probe ?wrap specs =
  check_specs params.config specs;
  let t_wall = Ppp_telemetry.Span.now_s () in
  (* Observed, perturbed or profiled runs always simulate. *)
  if Option.is_some probe || Option.is_some wrap || params.profile then begin
    let results, series = simulate params ?probe ?wrap specs in
    report ~cat:"runner" params specs t_wall series;
    results
  end
  else
    let key =
      {
        k_params = { params with cell = "" };
        k_specs = specs;
        k_sampling = Ppp_telemetry.Recorder.sampling ();
      }
    in
    match claim key with
    | `Miss p ->
        let results, series, entry =
          try
            let results, series = simulate params specs in
            (results, series, entry_of params results series)
          with e ->
            abandon key p;
            raise e
        in
        fulfil p entry;
        report ~cat:"runner" params specs t_wall series;
        results
    | `Hit e ->
        let packed, series = contents e in
        (* The telemetry the simulation reported, under this caller's cell;
           the recorder re-stamps the experiment. *)
        report ~cat:"runcache" params specs t_wall
          (List.map
             (fun s -> { s with Ppp_telemetry.Timeseries.cell = params.cell })
             series);
        List.map unpack packed

let cell_params params label =
  { params with seed = Ppp_util.Rng.derive ~seed:params.seed label;
    cell = label }

let with_cell params label = { params with cell = label }

let solo ?(params = Params.default) kind =
  (* A pure function of (params, kind): the seed is derived from the kind's
     name, so a solo baseline computed anywhere — any experiment, any cell
     order, any job count — is the same simulation. *)
  let params = cell_params params ("solo/" ^ Ppp_apps.App.name kind) in
  match run ~params [ flow_on ~core:0 kind ] with
  | [ r ] -> r
  | _ -> assert false

let drop ~solo ~corun =
  let ts = solo.Ppp_hw.Engine.throughput_pps in
  (ts -. corun.Ppp_hw.Engine.throughput_pps) /. ts

let competing_refs_per_sec results ~target =
  List.fold_left
    (fun acc (r : Ppp_hw.Engine.result) ->
      if r.Ppp_hw.Engine.core = target.Ppp_hw.Engine.core then acc
      else acc +. r.Ppp_hw.Engine.l3_refs_per_sec)
    0.0 results
