(** The simulated memory hierarchy: private L1/L2 per core, an inclusive
    shared L3 per socket with a presence-bit directory, and per-node memory
    controllers.

    This module turns a single memory reference from one core into a latency,
    mutating shared cache state as a side effect — which is exactly how
    co-running flows damage each other: their interleaved references evict
    each other's L3 lines (Figure 4(a)) and queue behind each other at the
    memory controller (Figure 4(b)). *)

type geometry = {
  l1 : Cache.geometry;
  l2 : Cache.geometry;
  l3 : Cache.geometry;  (** one shared L3 per socket *)
}

type t

val create : Topology.t -> Costs.t -> geometry -> t
val topology : t -> Topology.t
val costs : t -> Costs.t
val counters : t -> int -> Counters.t
(** Per-core counters. *)

val access : t -> core:int -> write:bool -> fn:Fn.t -> addr:int -> now:int -> int
(** [access t ~core ~write ~fn ~addr ~now] performs one load/store and
    returns its latency in cycles. [now] is the core's current cycle (used
    for memory-controller queueing). *)

val dma_write : t -> addr:int -> now:int -> unit
(** A NIC DMA write to the line containing [addr]: the line is discarded
    from every cache (all sockets, all private caches) and one transaction
    is charged to the home node's memory controller. No core waits. Only
    the L3 directory's holders are snooped: by inclusion, a private cache
    holds a line only while its socket's L3 does, with that core's
    directory bit set. *)

val l3_occupancy : t -> socket:int -> int
(** Resident L3 lines on a socket (for tests). *)

val l3_resident : t -> socket:int -> addr:int -> bool
val private_resident : t -> core:int -> addr:int -> bool

val memctrl_transactions : t -> node:int -> int

val l1 : t -> core:int -> Cache.t
val l2 : t -> core:int -> Cache.t
val l3 : t -> socket:int -> Cache.t
(** The caches themselves, for inspection (resident sets in tests);
    mutating one voids the hierarchy's invariants. *)
