open Ppp_simmem

type queue = {
  ring : int Iarray.t; (* one 64B descriptor slot per entry *)
  fifo : Ppp_net.Packet.t Queue.t;
  slots : int;
  mutable pushed : int;
  mutable popped : int;
}

type stage = {
  elements : Element.t list;
  ctx : Ctx.t;
  index : int;
}

type t = {
  label : string;
  source : Ppp_traffic.Source.t;
  stages : stage array;
  queues : queue array;
  pool : Ppp_net.Packet.t array;
  rx_desc : int Iarray.t;
  free_list : int Iarray.t;
  buf_base : int;
  buf_stride : int;
  rx_slots : int;
  mutable seq : int;
  mutable forwarded : int;
  mutable dropped : int;
}

let stall_cycles = 120
let header_bytes = 54

let create ~heap ~rng ~label ~source ~stages ?(queue_slots = 32) () =
  let n = List.length stages in
  if n < 2 then invalid_arg "Staged.create: need at least two stages";
  if queue_slots <= 0 then invalid_arg "Staged.create: queue_slots";
  let rx_slots = (queue_slots * (n - 1)) + (4 * n) + 8 in
  let buf_stride = 2048 in
  {
    label;
    source;
    stages =
      Array.of_list
        (List.mapi
           (fun index elements ->
             { elements; ctx = Ctx.create ~rng:(Ppp_util.Rng.split rng); index })
           stages);
    queues =
      Array.init (n - 1) (fun _ ->
          {
            ring = Iarray.create heap ~elem_bytes:64 queue_slots 0;
            fifo = Queue.create ();
            slots = queue_slots;
            pushed = 0;
            popped = 0;
          });
    pool = Array.init rx_slots (fun _ -> Ppp_net.Packet.create 60);
    rx_desc = Iarray.create heap ~elem_bytes:16 rx_slots 0;
    free_list = Iarray.create heap ~elem_bytes:8 rx_slots 0;
    buf_base = Heap.alloc heap ~bytes:(rx_slots * buf_stride);
    buf_stride;
    rx_slots;
    seq = 0;
    forwarded = 0;
    dropped = 0;
  }

let num_stages t = Array.length t.stages
let forwarded t = t.forwarded
let dropped t = t.dropped

let queue_full q = Queue.length q.fifo >= q.slots

let push_queue t q ctx pkt =
  Ctx.set_elem ctx Flow.eid_to_device;
  let slot = q.pushed mod q.slots in
  q.pushed <- q.pushed + 1;
  Iarray.set q.ring ctx.Ctx.builder ~fn:Flow.fn_to_device slot
    pkt.Ppp_net.Packet.buf_addr;
  Queue.push pkt q.fifo;
  ignore t

let pop_queue t q ctx =
  Ctx.set_elem ctx Flow.eid_from_device;
  let slot = q.popped mod q.slots in
  q.popped <- q.popped + 1;
  let pkt = Queue.pop q.fifo in
  ignore (Iarray.get q.ring ctx.Ctx.builder ~fn:Flow.fn_from_device slot : int);
  (* The consumer re-reads the packet headers written upstream. *)
  Ctx.touch_packet ctx pkt ~fn:Flow.fn_from_device ~write:false ~pos:0
    ~len:(min header_bytes pkt.Ppp_net.Packet.len);
  ignore t;
  pkt

let receive t ctx =
  let open Ppp_hw.Trace in
  let b = ctx.Ctx.builder in
  Ctx.set_elem ctx Flow.eid_from_device;
  let slot = t.seq mod t.rx_slots in
  let pkt = t.pool.(slot) in
  t.seq <- t.seq + 1;
  (match Ppp_traffic.Source.fill t.source pkt with
  | Ppp_traffic.Source.Filled -> ()
  | Ppp_traffic.Source.Exhausted ->
      failwith
        (Printf.sprintf "Staged %s: packet source %s exhausted" t.label
           (Ppp_traffic.Source.name t.source)));
  pkt.Ppp_net.Packet.buf_addr <- t.buf_base + (slot * t.buf_stride);
  Builder.dma b (Iarray.addr_of t.rx_desc slot);
  let len = pkt.Ppp_net.Packet.len in
  let base = pkt.Ppp_net.Packet.buf_addr in
  let l = ref 0 in
  while !l < len do
    Builder.dma b (base + !l);
    l := !l + 64
  done;
  ignore (Iarray.get t.rx_desc b ~fn:Flow.fn_from_device slot : int);
  Iarray.set t.rx_desc b ~fn:Flow.fn_from_device slot t.seq;
  Ctx.touch_packet ctx pkt ~fn:Flow.fn_from_device ~write:false ~pos:0
    ~len:(min header_bytes len);
  Ctx.compute ctx ~fn:Flow.fn_from_device 40;
  pkt

let transmit t ctx pkt =
  Ctx.set_elem ctx Flow.eid_to_device;
  let slot = (pkt.Ppp_net.Packet.buf_addr - t.buf_base) / t.buf_stride in
  Ctx.touch_packet ctx pkt ~fn:Flow.fn_to_device ~write:true ~pos:0 ~len:12;
  Ctx.compute ctx ~fn:Flow.fn_to_device 25;
  (* Recycle the buffer into the receiving core's pool: shared free-list
     lines written by the transmitting core (the paper's extra
     synchronization cost of pipelining). *)
  let b = ctx.Ctx.builder in
  Ctx.set_elem ctx Flow.eid_skb_recycle;
  ignore (Iarray.get t.free_list b ~fn:Flow.fn_skb_recycle slot : int);
  Iarray.set t.free_list b ~fn:Flow.fn_skb_recycle slot slot;
  Ctx.compute ctx ~fn:Flow.fn_skb_recycle 15

let idle ctx =
  let b = ctx.Ctx.builder in
  Ppp_hw.Trace.Builder.clear b;
  Ppp_hw.Trace.Builder.stall b stall_cycles;
  Ppp_hw.Engine.Idle (Ppp_hw.Trace.Builder.finish b)

let stage_source t stage (_now : int) =
  let b = stage.ctx.Ctx.builder in
  let n = Array.length t.stages in
  let is_first = stage.index = 0 and is_last = stage.index = n - 1 in
  let inq = if is_first then None else Some t.queues.(stage.index - 1) in
  let outq = if is_last then None else Some t.queues.(stage.index) in
  let input_ready = match inq with None -> true | Some q -> not (Queue.is_empty q.fifo) in
  let output_ready = match outq with None -> true | Some q -> not (queue_full q) in
  if not (input_ready && output_ready) then idle stage.ctx
  else begin
    Ppp_hw.Trace.Builder.clear b;
    let pkt =
      match inq with
      | None -> receive t stage.ctx
      | Some q -> pop_queue t q stage.ctx
    in
    match Element.process_all stage.elements stage.ctx pkt with
    | Element.Drop ->
        t.dropped <- t.dropped + 1;
        if is_last then begin
          (* Count drops as completed work items at the egress stage. *)
          Ppp_hw.Engine.Idle (Ppp_hw.Trace.Builder.finish b)
        end
        else Ppp_hw.Engine.Idle (Ppp_hw.Trace.Builder.finish b)
    | Element.Forward ->
        (match outq with
        | Some q -> push_queue t q stage.ctx pkt
        | None -> ());
        if is_last then begin
          transmit t stage.ctx pkt;
          t.forwarded <- t.forwarded + 1;
          Ppp_hw.Engine.Packet (Ppp_hw.Trace.Builder.finish b)
        end
        else Ppp_hw.Engine.Idle (Ppp_hw.Trace.Builder.finish b)
  end

let sources t = Array.map (fun st -> stage_source t st) t.stages
