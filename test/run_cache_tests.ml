(* The run cache inside Runner.run: a hit must be indistinguishable from a
   simulation in everything a caller or the telemetry exports can see, and
   its statistics must count each distinct run once whatever the job
   count. *)

open Ppp_core
open Ppp_experiments

let golden_params = Runner.Params.quick

let short =
  Runner.Params.(quick |> with_windows ~warmup:50_000 ~measure:150_000)

let with_jobs n f =
  let prev = Parallel.configured_jobs () in
  Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs prev) f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let render id =
  match Registry.find id with
  | Some e -> (e.Registry.run ~params:golden_params ()).Output.text
  | None -> Alcotest.failf "experiment %s not registered" id

(* (a) The experiments that share solo baselines and sensitivity points,
   rendered in registry order so later ones hit what earlier ones ran, must
   each render the same bytes as from an empty cache — and as the golden
   snapshot. *)
let test_warm_renders_match_cold () =
  let ids =
    List.filter
      (fun id -> List.mem id [ "fig2"; "fig10"; "fig4"; "fig5"; "fig8" ])
      (Registry.ids ())
  in
  Runner.reset_cache ();
  let warm = List.map (fun id -> (id, render id)) ids in
  Alcotest.(check bool)
    "the warm pass reused runs" true
    ((Runner.cache_stats ()).Runner.hits > 0);
  List.iter
    (fun (id, text) ->
      Runner.reset_cache ();
      Alcotest.(check string) (id ^ ": warm = cold") (render id) text;
      Alcotest.(check string)
        (id ^ ": warm = golden")
        (read_file (Filename.concat "golden" (id ^ ".expected")))
        text)
    warm

(* (b) A pass served entirely from the cache replays the same series. *)
let test_hit_series_replay () =
  Ppp_telemetry.Recorder.reset ();
  Ppp_telemetry.Recorder.configure ~sample_cycles:250_000 ~spans:false ();
  Fun.protect ~finally:Ppp_telemetry.Recorder.reset (fun () ->
      Runner.reset_cache ();
      let pass () =
        Ppp_telemetry.Recorder.clear_data ();
        Ppp_telemetry.Recorder.set_experiment "fig2";
        ignore (render "fig2" : string);
        Ppp_telemetry.Csv.series_csv (Ppp_telemetry.Recorder.series ())
      in
      let first = pass () in
      let misses = (Runner.cache_stats ()).Runner.misses in
      let second = pass () in
      Alcotest.(check int)
        "second pass is all hits" misses
        (Runner.cache_stats ()).Runner.misses;
      Alcotest.(check string) "series CSV replayed byte for byte" first second;
      Alcotest.(check string)
        "and equal to the golden metrics snapshot"
        (read_file (Filename.concat "golden" "fig2_metrics.expected"))
        first)

(* A hit's series carry the caller's cell, not the one that simulated. *)
let test_hit_restamps_cell () =
  Ppp_telemetry.Recorder.reset ();
  Ppp_telemetry.Recorder.configure ~sample_cycles:50_000 ~spans:false ();
  Fun.protect ~finally:Ppp_telemetry.Recorder.reset (fun () ->
      Runner.reset_cache ();
      let series_of cell =
        Ppp_telemetry.Recorder.clear_data ();
        ignore
          (Runner.run
             ~params:(Runner.with_cell short cell)
             [ Runner.flow_on ~core:0 Ppp_apps.App.IP ]);
        Ppp_telemetry.Recorder.series ()
      in
      let first = series_of "first" in
      let second = series_of "second" in
      Alcotest.(check int) "the second run was a hit" 1
        (Runner.cache_stats ()).Runner.hits;
      Alcotest.(check (list string))
        "series re-stamped" [ "second" ]
        (List.map (fun (s : Ppp_telemetry.Timeseries.t) -> s.cell) second);
      Alcotest.(check bool)
        "same slices" true
        (List.map (fun (s : Ppp_telemetry.Timeseries.t) -> s.slices) first
        = List.map (fun (s : Ppp_telemetry.Timeseries.t) -> s.slices) second))

(* (c) Results handed out are the caller's: mutating them leaves later
   hits untouched. *)
let test_hits_are_fresh () =
  Runner.reset_cache ();
  let snapshot (r : Ppp_hw.Engine.result) =
    ( Ppp_hw.Counters.copy r.Ppp_hw.Engine.counters,
      Ppp_util.Histogram.count r.Ppp_hw.Engine.latency,
      Ppp_util.Histogram.percentile r.Ppp_hw.Engine.latency 99.0,
      Ppp_util.Histogram.count r.Ppp_hw.Engine.latency_inorder )
  in
  let vandalize (r : Ppp_hw.Engine.result) =
    Ppp_hw.Counters.add_instructions r.Ppp_hw.Engine.counters 1_000;
    Ppp_hw.Counters.add_l3_miss r.Ppp_hw.Engine.counters Ppp_hw.Fn.none;
    Ppp_util.Histogram.record r.Ppp_hw.Engine.latency 1_000_000_000;
    Ppp_util.Histogram.clear r.Ppp_hw.Engine.latency_inorder
  in
  let miss = Runner.solo ~params:short Ppp_apps.App.MON in
  let c0, n0, p0, i0 = snapshot miss in
  vandalize miss;
  vandalize (Runner.solo ~params:short Ppp_apps.App.MON);
  let c, n, p, i = snapshot (Runner.solo ~params:short Ppp_apps.App.MON) in
  Alcotest.(check bool) "counters unchanged" true (Ppp_hw.Counters.equal c0 c);
  Alcotest.(check int) "latency count unchanged" n0 n;
  Alcotest.(check int) "latency p99 unchanged" p0 p;
  Alcotest.(check int) "in-order latency unchanged" i0 i;
  Alcotest.(check int) "two hits" 2 (Runner.cache_stats ()).Runner.hits

(* (d) Concurrent callers of one key: one simulates, the rest wait. *)
let test_concurrent_callers () =
  Runner.reset_cache ();
  let results =
    with_jobs 4 (fun () ->
        Parallel.map
          (fun _ -> Runner.solo ~params:short Ppp_apps.App.IP)
          (List.init 8 Fun.id))
  in
  let s = Runner.cache_stats () in
  Alcotest.(check int) "one miss" 1 s.Runner.misses;
  Alcotest.(check int) "seven hits" 7 s.Runner.hits;
  Alcotest.(check bool) "hits saved simulated cycles" true
    (s.Runner.saved_cycles > 0);
  match results with
  | r :: rest ->
      List.iter
        (fun (x : Ppp_hw.Engine.result) ->
          Alcotest.(check int) "same packets" r.Ppp_hw.Engine.packets
            x.Ppp_hw.Engine.packets)
        rest
  | [] -> Alcotest.fail "no results"

(* (e) Invalid calls raise before the lookup and never touch the cache. *)
let test_invalid_calls_leave_no_trace () =
  Runner.reset_cache ();
  let bad () =
    ignore
      (Runner.run ~params:short
         [
           Runner.flow_on ~core:0 Ppp_apps.App.IP;
           { Runner.kind = Ppp_apps.App.MON; core = 999; data_node = 0 };
         ])
  in
  let expected = Invalid_argument "Runner.run: core out of range" in
  Alcotest.check_raises "first call" expected bad;
  Alcotest.check_raises "second call, same error" expected bad;
  let s = Runner.cache_stats () in
  Alcotest.(check (pair int int)) "stats unchanged" (0, 0)
    (s.Runner.hits, s.Runner.misses)

let tests =
  [
    Alcotest.test_case "warm renders = cold renders = golden" `Slow
      test_warm_renders_match_cold;
    Alcotest.test_case "hits replay the series byte for byte" `Slow
      test_hit_series_replay;
    Alcotest.test_case "a hit re-stamps the caller's cell" `Quick
      test_hit_restamps_cell;
    Alcotest.test_case "mutating a result spares later hits" `Quick
      test_hits_are_fresh;
    Alcotest.test_case "concurrent callers share one simulation" `Quick
      test_concurrent_callers;
    Alcotest.test_case "invalid calls leave the cache untouched" `Quick
      test_invalid_calls_leave_no_trace;
  ]
