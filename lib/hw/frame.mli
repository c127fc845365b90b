(** A frame in flight on the wire.

    A frame is an mbuf in one of two ownership modes:

    - {!borrow_mbuf} is the zero-copy TX path: the frame is the
      sender's mbuf itself and holds one mbuf reference.  Each hand-off
      on the wire transfers that reference; the final consumer calls
      {!release}.  Fan-out (switch flooding, wire-fault duplication)
      takes extra references with {!retain}.
    - {!of_mbuf} and {!of_bytes} build an owned snapshot: a standalone
      mbuf over a private copy (the "DMA read") that {!retain} and
      {!release} skip — cold/control paths and tests.

    Reception copies the frame into an mbuf of the receiving queue's
    pool (the DMA write) and releases it.  The accessors below are the
    fixed-offset header peeks NIC hardware performs for RSS and
    switching.

    Ownership protocol: every [Link.send]/[deliver]/[Nic.receive]
    consumes exactly one frame reference.  The mutators ({!with_ce},
    {!corrupt}, {!truncate}) are copy-on-write and also consuming:
    when they change anything they return a detached owned snapshot
    and release the input (which may recycle a borrowed mbuf at once);
    when the input is already in the requested state they return it
    unchanged (physically equal), passing the reference through.
    Holding and re-sending an owned snapshot remains legal. *)

type t = Ixmem.Mbuf.t

val empty : t
(** Inert zero-length placeholder for pooled storage slots; never
    placed on the wire. *)

val of_mbuf : Ixmem.Mbuf.t -> t
(** Owned snapshot of the mbuf contents; independent of the mbuf's
    lifetime.  Per-packet TX uses {!borrow_mbuf} instead. *)

val borrow_mbuf : Ixmem.Mbuf.t -> t
(** The mbuf itself as a frame, with one more reference (incref).  The
    caller must not touch the mbuf's payload, [off] or [len] until the
    frame is released. *)

val retain : t -> unit
(** Take one more reference (fan-out).  No-op on owned snapshots. *)

val release : t -> unit
(** Drop one reference (terminal consumption: RX copy-in, wire drop,
    switch discard).  No-op on owned snapshots. *)

val length : t -> int

val wire_bytes : t -> int
(** Bytes occupied on the wire including preamble/FCS/IFG/padding. *)

val dst_mac : t -> Ixnet.Mac_addr.t
val src_mac : t -> Ixnet.Mac_addr.t

val has_rss_tuple : t -> bool
(** Whether the frame is TCP or UDP over IPv4 and so carries an RSS
    4-tuple; anything else is steered to queue 0.  The field reads
    below are allocation-free, for the per-frame classify path. *)

val rss_src_ip : t -> Ixnet.Ip_addr.t
val rss_dst_ip : t -> Ixnet.Ip_addr.t
val rss_src_port : t -> int
val rss_dst_port : t -> int
(** Fixed-offset 4-tuple field reads; meaningful only when
    [has_rss_tuple] is [true]. *)

val l3l4_hash : t -> int
(** The switch's LAG member-selection hash (bonding, §5.1). *)

val to_mbuf : t -> into:Ixmem.Mbuf.t -> unit
(** DMA the frame contents into a fresh mbuf.  Does not release the
    frame — the receive path releases after the copy-in. *)

val with_ce : t -> t
(** The frame with the IPv4 ECN field set to Congestion Experienced,
    updating the header checksum incrementally (RFC 1624).  Non-IPv4
    or already-marked frames are returned unchanged (physically
    equal); otherwise a detached owned snapshot is returned and the
    input reference consumed — this is what an ECN-marking switch
    queue does to passing packets. *)

val is_ce : t -> bool

val corrupt : t -> pos:int -> mask:int -> t
(** Copy-on-write byte flip: byte [pos mod length] is XORed with
    [mask land 0xFF] (coerced to [0x01] when zero so the result always
    differs).  Consumes the input reference and returns a detached
    owned snapshot.  No checksum fixup — wire damage the receiver's RX
    validation is expected to catch. *)

val copy_bytes : t -> Bytes.t
(** Fresh copy of the frame contents (does not consume the frame's
    reference).  Cold-path helper for fault injectors that forge
    variants of passing frames. *)

val of_bytes : Bytes.t -> t
(** Owned frame over [buf] (takes ownership; the caller must not
    mutate it afterwards).  Retain/release are no-ops, as for any
    owned snapshot. *)

val truncate : t -> keep:int -> t
(** Copy-on-write cut to the first [keep] bytes (at least 1) — a runt
    frame.  A [keep] at or beyond the frame length returns the frame
    unchanged (physically equal); otherwise consumes the input
    reference and returns a detached owned snapshot. *)
