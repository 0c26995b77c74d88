let min_wire_len = 60

let fill_ipv4_udp pkt ~src ~dst ~sport ~dport ~wire_len =
  if wire_len < min_wire_len then invalid_arg "Gen.fill_ipv4_udp: too short";
  let open Ppp_net in
  Packet.resize pkt wire_len;
  Ethernet.set_header pkt ~src:"\x02\x00\x00\x00\x00\x01"
    ~dst:"\x02\x00\x00\x00\x00\x02" ~ethertype:Ethernet.ethertype_ipv4;
  let ip_payload = wire_len - Ipv4.header_offset - Ipv4.header_bytes in
  Ipv4.set_header pkt ~src ~dst ~proto:Ipv4.proto_udp ~ttl:64
    ~payload_len:ip_payload;
  Transport.set_udp_header pkt ~src:sport ~dst:dport
    ~payload_len:(ip_payload - Transport.udp_header_bytes)

(* A stable synthetic 5-tuple per abstract flow id, shared by every source
   model so flow ids form one address space: sources built over disjoint id
   ranges never collide on a tuple. Integer-only (FNV + masks) — the
   source fill path must not allocate. *)
let fill_flow pkt ~flow ~wire_len =
  let h = Ppp_util.Hashes.fnv1a_int (flow lxor 0x9E3779B9) in
  let src = 0x0A000000 lor (h land 0xFFFFFF) in
  let dst = 0x0B000000 lor ((h lsr 16) land 0xFFFFFF) in
  let sport = 1024 + ((h lsr 24) land 0x3FFF) in
  let dport = 1024 + ((h lsr 40) land 0x3FFF) in
  fill_ipv4_udp pkt ~src ~dst ~sport ~dport ~wire_len

let random_payload rng pkt ~pos ~len =
  Ppp_util.Rng.fill_bytes rng pkt.Ppp_net.Packet.data ~pos ~len

let seeded_payload ~seed pkt ~pos ~len =
  random_payload (Ppp_util.Rng.create ~seed) pkt ~pos ~len
