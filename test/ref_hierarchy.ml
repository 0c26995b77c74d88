(* A naive reference for Ppp_hw.Hierarchy: the same coherence and timing
   model written the obvious way, as an oracle for the differential in
   hw_prop_tests.

   Every cache set is a list of resident lines, most recently used first:
   a hit moves the line to the head, a fill of a full set evicts the last
   element, so true LRU holds by construction with no stamps, slots, way
   prediction or victim encodings. The L3 keeps the same conservative
   presence-bit directory in each line's [aux], private lines keep the
   exclusivity flag there, and each memory controller is a fixed-latency
   queue. A NIC DMA sweeps every cache on the machine instead of trusting
   the directory, so the optimized [dma_write] is checked against the
   plain meaning of "the line is discarded from every cache". Do not
   optimize this file; its value is that it is obviously right. *)

open Ppp_hw

type entry = { line : int; mutable dirty : bool; mutable aux : int }

type cache = { ways : int; nsets : int; sets : entry list array }

type memctrl = { service : int; mutable free_at : int; mutable transactions : int }

type t = {
  topo : Topology.t;
  costs : Costs.t;
  line_bytes : int;
  l1s : cache array;
  l2s : cache array;
  l3s : cache array;
  mcs : memctrl array;
  counters : Counters.t array;
  miss_streak : bool array;
}

let excl = 1

let make_cache (g : Cache.geometry) =
  let nsets = g.Cache.size_bytes / (g.Cache.ways * g.Cache.line_bytes) in
  { ways = g.Cache.ways; nsets; sets = Array.make nsets [] }

let create topo costs (geo : Hierarchy.geometry) =
  let cores = Topology.cores topo in
  let sockets = topo.Topology.sockets in
  {
    topo;
    costs;
    line_bytes = geo.Hierarchy.l1.Cache.line_bytes;
    l1s = Array.init cores (fun _ -> make_cache geo.Hierarchy.l1);
    l2s = Array.init cores (fun _ -> make_cache geo.Hierarchy.l2);
    l3s = Array.init sockets (fun _ -> make_cache geo.Hierarchy.l3);
    mcs =
      Array.init sockets (fun _ ->
          { service = costs.Costs.mc_service; free_at = 0; transactions = 0 });
    counters = Array.init cores (fun _ -> Counters.create ());
    miss_streak = Array.make cores false;
  }

let set_of c line = line mod c.nsets

(* Look a line up without changing recency. *)
let lookup c line = List.find_opt (fun e -> e.line = line) c.sets.(set_of c line)

(* Look a line up and make it most recently used. *)
let touch c line =
  match lookup c line with
  | None -> None
  | Some e as hit ->
      let s = set_of c line in
      c.sets.(s) <- e :: List.filter (fun x -> x != e) c.sets.(s);
      hit

let remove c line =
  match lookup c line with
  | None -> None
  | Some e as hit ->
      let s = set_of c line in
      c.sets.(s) <- List.filter (fun x -> x != e) c.sets.(s);
      hit

(* The entry a fill of [line]'s set would push out: the LRU line of a full
   set, nothing while the set has room. *)
let victim c line =
  let set = c.sets.(set_of c line) in
  if List.length set < c.ways then None else Some (List.nth set (c.ways - 1))

let insert c ~dirty ~aux line =
  let s = set_of c line in
  c.sets.(s) <- { line; dirty; aux } :: c.sets.(s)

let occupy mc ~now =
  let wait = max 0 (mc.free_at - now) in
  mc.free_at <- now + wait + mc.service;
  mc.transactions <- mc.transactions + 1;
  wait

let node_of_line t line = Topology.node_of_addr (line * t.line_bytes)
let socket_of t core = core / t.topo.Topology.cores_per_socket
let local_index t core = core mod t.topo.Topology.cores_per_socket

let cores_of_socket t socket =
  let n = t.topo.Topology.cores_per_socket in
  List.init n (fun li -> (li, (socket * n) + li))

let writeback_to_l3 t ~socket ~line ~now =
  match lookup t.l3s.(socket) line with
  | Some e -> e.dirty <- true
  | None ->
      let node = min (node_of_line t line) (Array.length t.mcs - 1) in
      ignore (occupy t.mcs.(node) ~now : int)

(* Drop a line from a core's L1 and L2; true if either copy was dirty. *)
let invalidate_private t ~core ~line =
  let d1 = match remove t.l1s.(core) line with Some e -> e.dirty | None -> false in
  let d2 = match remove t.l2s.(core) line with Some e -> e.dirty | None -> false in
  d1 || d2

let invalidate_holders t ~socket ~bits ~excluding ~line =
  List.fold_left
    (fun dirty (li, core) ->
      if li <> excluding && bits land (1 lsl li) <> 0 then
        invalidate_private t ~core ~line || dirty
      else dirty)
    false (cores_of_socket t socket)

let downgrade_holders t ~socket ~bits ~excluding ~line =
  List.fold_left
    (fun dirty (li, core) ->
      if li <> excluding && bits land (1 lsl li) <> 0 then
        List.fold_left
          (fun dirty c ->
            match lookup c line with
            | Some e ->
                let was = e.dirty in
                e.dirty <- false;
                e.aux <- 0;
                was || dirty
            | None -> dirty)
          dirty
          [ t.l1s.(core); t.l2s.(core) ]
      else dirty)
    false (cores_of_socket t socket)

let upgrade t ~socket ~self_li ~line =
  (match lookup t.l3s.(socket) line with
  | Some e ->
      if invalidate_holders t ~socket ~bits:e.aux ~excluding:self_li ~line then
        e.dirty <- true;
      e.aux <- 1 lsl self_li
  | None -> ());
  t.costs.Costs.upgrade_lat

(* Make [line] resident in the core's L2 (clean) and L1; a dirty L1 victim
   moves down into the L2, a dirty L2 victim is written into the L3. *)
let fill_private t ~core ~socket ~line ~exclusive ~dirty ~now =
  let aux = if exclusive then excl else 0 in
  let l1 = t.l1s.(core) and l2 = t.l2s.(core) in
  let fill_l2 ~dirty ~aux line =
    (match victim l2 line with
    | Some v ->
        ignore (remove l2 v.line : entry option);
        if v.dirty then writeback_to_l3 t ~socket ~line:v.line ~now
    | None -> ());
    insert l2 ~dirty ~aux line
  in
  fill_l2 ~dirty:false ~aux line;
  (match victim l1 line with
  | Some v ->
      ignore (remove l1 v.line : entry option);
      if v.dirty then begin
        match touch l2 v.line with
        | Some e -> e.dirty <- true
        | None -> fill_l2 ~dirty:true ~aux:0 v.line
      end
  | None -> ());
  insert l1 ~dirty ~aux line

let access t ~core ~write ~fn ~addr ~now =
  let c = t.costs in
  let ctr = t.counters.(core) in
  if write then Counters.add_write ctr else Counters.add_read ctr;
  Counters.add_instructions ctr 1;
  let line = addr / t.line_bytes in
  let socket = socket_of t core and self_li = local_index t core in
  let self = 1 lsl self_li in
  match touch t.l1s.(core) line with
  | Some e ->
      t.miss_streak.(core) <- false;
      Counters.add_l1_hit ctr fn;
      let extra =
        if write && e.aux land excl = 0 then begin
          let lat = upgrade t ~socket ~self_li ~line in
          e.aux <- excl;
          (match lookup t.l2s.(core) line with
          | Some e2 -> e2.aux <- excl
          | None -> ());
          lat
        end
        else 0
      in
      if write then e.dirty <- true;
      c.Costs.l1_lat + extra
  | None -> (
      match remove t.l2s.(core) line with
      | Some e ->
          t.miss_streak.(core) <- false;
          Counters.add_l2_hit ctr fn;
          let exclusive = e.aux land excl <> 0 in
          let extra =
            if write && not exclusive then upgrade t ~socket ~self_li ~line else 0
          in
          fill_private t ~core ~socket ~line ~exclusive:(exclusive || write)
            ~dirty:(e.dirty || write) ~now;
          c.Costs.l2_lat + extra
      | None -> (
          let l3 = t.l3s.(socket) in
          match touch l3 line with
          | Some e ->
              t.miss_streak.(core) <- false;
              Counters.add_l3_hit ctr fn;
              let snoop =
                if e.aux land lnot self = 0 then begin
                  e.aux <- e.aux lor self;
                  0
                end
                else if write then begin
                  if
                    invalidate_holders t ~socket ~bits:e.aux ~excluding:self_li
                      ~line
                  then e.dirty <- true;
                  e.aux <- self;
                  c.Costs.upgrade_lat
                end
                else begin
                  let dirty =
                    downgrade_holders t ~socket ~bits:e.aux ~excluding:self_li
                      ~line
                  in
                  if dirty then e.dirty <- true;
                  e.aux <- e.aux lor self;
                  if dirty then c.Costs.c2c_lat else 0
                end
              in
              fill_private t ~core ~socket ~line ~exclusive:(e.aux = self)
                ~dirty:write ~now;
              c.Costs.l3_lat + snoop
          | None ->
              Counters.add_l3_miss ctr fn;
              let nmc = Array.length t.mcs in
              let node = Topology.node_of_addr addr in
              let home = if node < nmc then node else socket in
              let wait = occupy t.mcs.(home) ~now in
              let dram =
                if t.miss_streak.(core) && c.Costs.mlp > 1 then
                  c.Costs.dram_lat / c.Costs.mlp
                else c.Costs.dram_lat
              in
              t.miss_streak.(core) <- true;
              (match victim l3 line with
              | Some v ->
                  ignore (remove l3 v.line : entry option);
                  let priv_dirty =
                    invalidate_holders t ~socket ~bits:v.aux ~excluding:(-1)
                      ~line:v.line
                  in
                  if v.dirty || priv_dirty then begin
                    let vnode = node_of_line t v.line in
                    let vmc = if vnode < nmc then vnode else home in
                    ignore (occupy t.mcs.(vmc) ~now : int)
                  end
              | None -> ());
              insert l3 ~dirty:write ~aux:self line;
              fill_private t ~core ~socket ~line ~exclusive:true ~dirty:write ~now;
              c.Costs.l3_lat + dram + wait
              + if node <> socket && node < nmc then c.Costs.qpi_lat else 0))

let dma_write t ~addr ~now =
  let line = addr / t.line_bytes in
  let drop c = ignore (remove c line : entry option) in
  Array.iter drop t.l1s;
  Array.iter drop t.l2s;
  Array.iter drop t.l3s;
  let node = Topology.node_of_addr addr in
  let mc = if node < Array.length t.mcs then node else 0 in
  ignore (occupy t.mcs.(mc) ~now : int)

let counters t core = t.counters.(core)
let memctrl_transactions t ~node = t.mcs.(node).transactions

(* Resident lines of a cache as sorted (line, dirty, aux) triples. *)
let resident c =
  Array.to_list c.sets |> List.concat
  |> List.map (fun e -> (e.line, e.dirty, e.aux))
  |> List.sort compare

let l1 t ~core = resident t.l1s.(core)
let l2 t ~core = resident t.l2s.(core)
let l3 t ~socket = resident t.l3s.(socket)
