(* qcheck properties for the hardware-model invariants the parallel-runner
   refactor must not disturb: LRU eviction order, L3 inclusion (with the
   presence-bit directory), and counter conservation, all under random
   access streams. *)

open Ppp_hw

(* --- LRU eviction order against a reference model --- *)

(* 2 sets x 4 ways; lines from a small universe force evictions. *)
let lru_geo = { Cache.size_bytes = 2 * 4 * 64; ways = 4; line_bytes = 64 }

(* The model: per set, resident lines most-recently-used first. *)
let prop_lru_eviction =
  QCheck.Test.make ~count:300 ~name:"cache evicts the set's LRU line"
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 31))
    (fun lines ->
      let c = Cache.create lru_geo in
      let model = Array.make (Cache.sets c) [] in
      List.for_all
        (fun line ->
          let set = line land (Cache.sets c - 1) in
          if Cache.find c line >= 0 then begin
            (* Hit: becomes most-recently-used. *)
            model.(set) <- line :: List.filter (( <> ) line) model.(set);
            true
          end
          else
            let ok =
              (* Two-step insert: read the victim in place, then fill. *)
              let s = Cache.victim_slot c line in
              let victim =
                if Cache.slot_valid c s then Some (Cache.line c s) else None
              in
              Cache.fill c ~slot:s ~dirty:false ~aux:0 line;
              match victim with
              | None -> List.length model.(set) < lru_geo.Cache.ways
              | Some victim_line ->
                  List.length model.(set) = lru_geo.Cache.ways
                  && victim_line = List.nth model.(set) (lru_geo.Cache.ways - 1)
            in
            let without_victim =
              if List.length model.(set) = lru_geo.Cache.ways then
                List.filteri (fun i _ -> i < lru_geo.Cache.ways - 1) model.(set)
              else model.(set)
            in
            model.(set) <- line :: without_victim;
            ok && Cache.resident c line)
        lines)

(* --- random access streams through a full hierarchy --- *)

let tiny_hier () = Machine.build Machine.tiny

let cores = Topology.cores Machine.tiny.Machine.topology

(* (core, line-index, write) triples; line universe larger than the L3 to
   force capacity evictions and back-invalidations. *)
let stream_gen =
  QCheck.(
    list_of_size
      Gen.(int_range 50 400)
      (triple (int_range 0 (cores - 1)) (int_range 0 4095) bool))

let run_stream hier ops =
  List.iteri
    (fun i (core, line, write) ->
      ignore
        (Hierarchy.access hier ~core ~write ~fn:Fn.none ~addr:(line * 64)
           ~now:(i * 10)
          : int))
    ops

let prop_counter_conservation =
  QCheck.Test.make ~count:100
    ~name:"refs = hits + misses at every level, per core" stream_gen
    (fun ops ->
      let hier = tiny_hier () in
      run_stream hier ops;
      List.for_all
        (fun core ->
          let c = Hierarchy.counters hier core in
          let refs = Counters.mem_refs c in
          let reads_writes = Counters.reads c + Counters.writes c in
          let by_level =
            Counters.l1_hits c + Counters.l2_hits c + Counters.l3_hits c
            + Counters.l3_misses c
          in
          let l3 = Counters.l3_refs c in
          let by_fn =
            List.fold_left
              (fun acc fn -> acc + Counters.fn_refs c fn)
              0
              (List.init (Fn.count ()) Fun.id)
          in
          refs = reads_writes && refs = by_level
          && l3 = Counters.l3_hits c + Counters.l3_misses c
          && by_fn = refs)
        (List.init cores Fun.id))

let prop_dma_invalidates =
  QCheck.Test.make ~count:100
    ~name:"DMA write leaves the line resident nowhere" stream_gen
    (fun ops ->
      QCheck.assume (ops <> []);
      let hier = tiny_hier () in
      run_stream hier ops;
      let _, line, _ = List.hd ops in
      let addr = line * 64 in
      Hierarchy.dma_write hier ~addr ~now:0;
      List.for_all
        (fun core -> not (Hierarchy.private_resident hier ~core ~addr))
        (List.init cores Fun.id)
      && List.for_all
           (fun socket -> not (Hierarchy.l3_resident hier ~socket ~addr))
           (List.init Machine.tiny.Machine.topology.Topology.sockets Fun.id))

(* --- random multi-socket streams on small geometries --- *)

(* Caches of a handful of lines on two sockets, so that evictions, dirty
   write-backs, back-invalidations (including of the requesting core's own
   lines) and cross-core snoops happen within a few dozen ops. The L3 may
   have fewer sets than the L2, so an L3 victim need not share its
   requester's private sets. *)
type small = {
  cps : int;  (** cores per socket *)
  l1 : int * int;  (** sets, ways *)
  l2 : int * int;
  l3 : int * int;
  mlp : int;
}

type op = Read | Write | Dma

let small_gen =
  QCheck.Gen.(
    let sets_ways sets ways = pair (oneofl sets) (oneofl ways) in
    map
      (fun (cps, l1, l2, (l3, mlp)) -> { cps; l1; l2; l3; mlp })
      (quad (int_range 2 3) (sets_ways [ 1; 2 ] [ 1; 2 ])
         (sets_ways [ 2; 4 ] [ 1; 2 ])
         (pair (sets_ways [ 1; 2; 4 ] [ 2; 4 ]) (oneofl [ 1; 2 ]))))

(* (kind, core, line, node, fn, cycles since the previous op); node 2 has
   no memory controller on a two-socket machine (the fallback paths). *)
let small_op_gen cores =
  QCheck.Gen.(
    map
      (fun ((kind, core, line), (node, fn, dt)) -> (kind, core, line, node, fn, dt))
      (pair
         (triple
            (frequencyl [ (5, Read); (4, Write); (1, Dma) ])
            (int_range 0 (cores - 1)) (int_range 0 23))
         (triple
            (frequencyl [ (6, 0); (3, 1); (1, 2) ])
            (int_range 0 3) (int_range 0 12))))

let small_case =
  let gen =
    QCheck.Gen.(
      small_gen >>= fun cfg ->
      map (fun ops -> (cfg, ops))
        (list_size (int_range 20 300) (small_op_gen (2 * cfg.cps))))
  in
  let print (cfg, ops) =
    let kind = function Read -> "R" | Write -> "W" | Dma -> "D" in
    Printf.sprintf "cps=%d l1=%dx%d l2=%dx%d l3=%dx%d mlp=%d [%s]" cfg.cps
      (fst cfg.l1) (snd cfg.l1) (fst cfg.l2) (snd cfg.l2) (fst cfg.l3)
      (snd cfg.l3) cfg.mlp
      (String.concat "; "
         (List.map
            (fun (k, c, l, n, f, dt) ->
              Printf.sprintf "%s c%d l%d n%d f%d +%d" (kind k) c l n f dt)
            ops))
  in
  QCheck.make ~print gen

let small_machine cfg =
  let geo (sets, ways) = { Cache.size_bytes = sets * ways * 64; ways; line_bytes = 64 } in
  ( Topology.create ~sockets:2 ~cores_per_socket:cfg.cps,
    { Costs.default with Costs.mlp = cfg.mlp },
    { Hierarchy.l1 = geo cfg.l1; l2 = geo cfg.l2; l3 = geo cfg.l3 } )

(* Applies one op to a hierarchy; returns its latency (0 for a DMA). *)
let apply_small ~access ~dma_write ~kind ~core ~fn ~addr ~now =
  match kind with
  | Dma ->
      dma_write ~addr ~now;
      0
  | Read | Write -> access ~core ~write:(kind = Write) ~fn ~addr ~now

(* Replays [ops] in order; [step] performs one op and says whether the
   checked law still holds. *)
let replay_small ops ~step =
  let now = ref 0 in
  List.for_all
    (fun (kind, core, line, node, fn, dt) ->
      now := !now + dt;
      step ~kind ~core ~fn ~addr:(Topology.node_base node + (line * 64)) ~now:!now)
    ops

let resident cache =
  Cache.fold_resident cache ~init:[] (fun acc line ~dirty ~aux ->
      (line, dirty, aux) :: acc)
  |> List.sort compare

(* The inclusion law that licenses [dma_write]'s directory-only snoop:
   every line in a core's L1 or L2 is in its socket's L3, with the core's
   presence bit set in the directory. *)
let inclusive topo hier =
  List.for_all
    (fun core ->
      let l3 = Hierarchy.l3 hier ~socket:(Topology.socket_of_core topo core) in
      let bit = 1 lsl Topology.local_index topo core in
      List.for_all
        (fun (line, _, _) ->
          let slot = Cache.probe l3 line in
          slot >= 0 && Cache.aux l3 slot land bit <> 0)
        (resident (Hierarchy.l1 hier ~core) @ resident (Hierarchy.l2 hier ~core)))
    (List.init (Topology.cores topo) Fun.id)

let prop_l3_inclusive =
  QCheck.Test.make ~count:300
    ~name:"L1/L2-resident lines are L3-resident and directory-marked"
    small_case
    (fun (cfg, ops) ->
      let topo, costs, geo = small_machine cfg in
      let hier = Hierarchy.create topo costs geo in
      replay_small ops ~step:(fun ~kind ~core ~fn ~addr ~now ->
          ignore
            (apply_small ~access:(Hierarchy.access hier)
               ~dma_write:(Hierarchy.dma_write hier) ~kind ~core ~fn ~addr ~now
              : int);
          inclusive topo hier))

(* Hierarchy.access / dma_write against the naive list-based reference:
   the same latency for every op, and after every op the same counters,
   the same resident (line, dirty, aux) set at every cache, and the same
   memory-controller transaction counts. *)
let prop_matches_reference =
  QCheck.Test.make ~count:300 ~name:"hierarchy matches the naive reference"
    small_case
    (fun (cfg, ops) ->
      let topo, costs, geo = small_machine cfg in
      let hier = Hierarchy.create topo costs geo in
      let r = Ref_hierarchy.create topo costs geo in
      let cores = List.init (Topology.cores topo) Fun.id in
      replay_small ops ~step:(fun ~kind ~core ~fn ~addr ~now ->
          let lat =
            apply_small ~access:(Hierarchy.access hier)
              ~dma_write:(Hierarchy.dma_write hier) ~kind ~core ~fn ~addr ~now
          in
          let ref_lat =
            apply_small ~access:(Ref_hierarchy.access r)
              ~dma_write:(Ref_hierarchy.dma_write r) ~kind ~core ~fn ~addr ~now
          in
          lat = ref_lat
          && List.for_all
               (fun core ->
                 Counters.equal
                   (Hierarchy.counters hier core)
                   (Ref_hierarchy.counters r core)
                 && resident (Hierarchy.l1 hier ~core) = Ref_hierarchy.l1 r ~core
                 && resident (Hierarchy.l2 hier ~core) = Ref_hierarchy.l2 r ~core)
               cores
          && List.for_all
               (fun socket ->
                 resident (Hierarchy.l3 hier ~socket) = Ref_hierarchy.l3 r ~socket
                 && Hierarchy.memctrl_transactions hier ~node:socket
                    = Ref_hierarchy.memctrl_transactions r ~node:socket)
               [ 0; 1 ]))

let tests =
  [
    QCheck_alcotest.to_alcotest prop_lru_eviction;
    QCheck_alcotest.to_alcotest prop_l3_inclusive;
    QCheck_alcotest.to_alcotest prop_counter_conservation;
    QCheck_alcotest.to_alcotest prop_dma_invalidates;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
