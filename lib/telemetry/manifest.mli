(** The JSON run manifest: provenance for a batch of experiment runs.

    Replaces the old loose stderr timing lines with structured data a CI
    job or analysis notebook can consume. Keys starting with [wall_] (and
    everything under ["wall_clock"]) are wall-clock measurements and hence
    nondeterministic; everything else is a pure function of the CLI
    invocation and the simulation. *)

type run = {
  tool : string;  (** "repro" or "bench" *)
  machine : string;  (** config name: westmere | scaled | tiny *)
  seed : int;
  warmup_cycles : int;
  measure_cycles : int;
  jobs_configured : int;  (** the [--jobs] value; 0 = auto *)
  jobs_effective : int;  (** the pool size actually used *)
  sample_cycles : int option;  (** slice length when sampling was on *)
}

type run_cache = {
  hits : int;  (** [Runner.run] calls served from the run cache *)
  misses : int;  (** calls that simulated and filled a cache entry *)
  saved_cycles : int;
      (** simulated core-cycles (warmup plus measured window, summed over
          the run's flows) that the hits did not have to simulate *)
}
(** The run cache's statistics; deterministic under any job count. *)

val no_run_cache : run_cache
(** All zeros: what the section reports when no statistics are passed. *)

val json :
  ?events:Event.t list ->
  ?classifier:Recorder.classifier_entry list ->
  ?traffic:Recorder.traffic_entry list ->
  ?profile:Recorder.profile_entry list ->
  ?run_cache:run_cache ->
  run:run ->
  experiments:Recorder.experiment_entry list ->
  series:Timeseries.t list ->
  spans:Span.t list ->
  unit ->
  Json.t
(** Schema "ppp-telemetry/6": a [schema_version] field, an [alerts] section
    summarizing monitor events (count + per-name breakdown), a [classifier]
    section summarizing fast-path/slow-path counters (totals + per-cell
    breakdown), a [traffic] section summarizing the traffic-realism
    cells (reorders, steering migrations, predictor/monitor accuracy), and
    a [profile] section summarizing per-element attribution (totals +
    per-element breakdown with worst-core latency percentiles), and a
    [run_cache] section with the run cache's hits, misses and saved
    simulated cycles ([run_cache] defaults to {!no_run_cache}).
    All five sections are always emitted; with no data they are the
    empty-but-valid shapes ({["events": 0]}, {["cells": 0]},
    {["entries": 0]}, {["hits": 0]}), so runs that exercise none of the
    subsystems stay schema-conforming. *)
