(** The simulator's own benchmark ("bench --perf-gate"): times fig2-sized
    {!Ppp_hw.Engine.run} workloads — target solo, target + 5 competitors,
    and the same contended run under a [?probe] sampler — and audits the
    cache-hit path for minor-heap allocation. The report serializes to the
    committed [BENCH_engine.json], whose [trajectory] array records one
    point per optimization round so regenerating the file never loses the
    bench history. *)

type measurement = {
  name : string;  (** "solo" | "contended" | "probed" | "profiled" *)
  flows : int;
  runs : int;  (** repetitions; [wall_s] is the best of them *)
  wall_s : float;
  engine_ops : int;  (** trace ops replayed, summed over cores *)
  ops_per_sec : float;
  allocated_bytes_per_op : float;
      (** [Gc.allocated_bytes] delta across the best run, per op *)
  window_packets : int;  (** sanity anchor: must not move with the engine *)
}

type hit_path = {
  accesses : int;
  allocated_bytes : float;
  bytes_per_access : float;
  zero_alloc : bool;
      (** true iff the repeated L1-hit loop allocated nothing beyond the
          constant slack of the measurement itself *)
}

type flow_table = {
  lookups : int;
  entries : int;  (** table capacity the loop probed *)
  hit_fraction : float;  (** of the lookup stream; pinned by construction *)
  ft_wall_s : float;
  lookups_per_sec : float;
  bytes_per_lookup : float;
  ft_zero_alloc : bool;
}
(** The classifier fast path's inner loop: instrumented {!Ppp_classify.Flow_table.find}
    over a pre-built packet pool, three-quarters of it installed. Like the
    cache-hit audit, the loop must not touch the minor heap — the classifier
    experiment runs it once per simulated packet. *)

type source_fill = {
  fills : int;
  sf_wall_s : float;
  fills_per_sec : float;
  bytes_per_fill : float;
  sf_zero_alloc : bool;
}
(** The {!Ppp_traffic.Source.fill} hot path: a heavy-tailed source (the
    most expensive built-in model — size-weighted flow sampling plus full
    frame construction) filling one preallocated packet in a tight loop.
    Every simulated packet of every experiment pays this path; the built-in
    sources promise integer-only sampling, so the loop must not touch the
    minor heap. *)

type report = {
  config : string;
  seed : int;
  quick : bool;
  warmup_cycles : int;
  measure_cycles : int;
  batch : int;  (** engine burst budget the workloads ran with *)
  workloads : measurement list;
  profile_overhead : float;
      (** fraction of contended throughput lost when the same workload runs
          under the per-element profiler ("profiled" vs "contended" ops/s);
          may dip slightly negative under wall-clock noise *)
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

val trajectory : trajectory_point list
(** The recorded bench history (full-length contended workload), one entry
    per optimization round, oldest first. Kept as code so the JSON can be
    regenerated without losing it. *)

val run : ?quick:bool -> ?runs:int -> ?batch:int -> unit -> report
(** [quick] quarters the warmup/measure windows and defaults [runs] to 1
    (CI smoke); the full gate defaults to best-of-3. [batch] sets the
    engine burst budget (default {!Runner.Params.default}'s); it changes
    only wall-clock, never simulation results. *)

val to_json : report -> Ppp_telemetry.Json.t

val required_keys : string list
(** Top-level keys every BENCH_engine.json must carry (tested). *)
