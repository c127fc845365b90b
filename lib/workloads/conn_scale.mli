(** Million-connection churn workload (ISSUE 7, DESIGN.md §8b).

    A single [Tcp_endpoint] serves [conns] synthetic clients whose
    state lives in unboxed arrays; the driver is single-threaded and
    deterministically clocked, so a fixed seed reproduces every
    counter.  Establishes all connections (via SYN cookies when
    [syn_cookies]), measures resident bytes per connection, then runs
    a Zipf-hot message mix with periodic server-side closes and
    same-tuple reconnects that exercise TIME_WAIT recycling — both the
    remnant-supersede path (immediate reconnect) and remnant expiry
    (delayed reconnect). *)

type result = {
  r_conns : int;
  r_events : int;
  r_established : int;  (** total accepts, including reconnects *)
  r_closes : int;
  r_reconnects : int;
  r_client_segs : int;  (** segments crafted and fed to the endpoint *)
  r_server_segs : int;
  r_connection_count : int;  (** live connections at the end *)
  r_store_live : int;
  r_store_capacity : int;
  r_time_wait_live : int;
  r_cookies_sent : int;
  r_cookies_validated : int;
  r_cookies_rejected : int;
  r_rsts : int;
  r_fast_hits : int;
  r_slow_hits : int;
  r_wheel : Timerwheel.Timer_wheel.stats;
  r_bytes_per_conn : float;
      (** resident heap per connection after establishment, driver
          state and the presized TCB store excluded: each connection's
          view, callbacks record and send deque, and the flow table.
          Each of the two readings is one [Gc.stat], which runs a full
          major collection before it counts *)
  r_store_bytes_per_conn : float;
      (** the TCB store's own bytes per connection, counted from its
          arrays ({!Ixtcp.Tcb.store_words}): each slot's row, DCTCP
          float, generation, free-list entry and view pointer *)
  r_establish_minor_words_per_conn : float;
  r_churn_minor_words_per_event : float;
  r_snapshot : string;
      (** deterministic counters only — safe to compare across runs and
          across domain layouts; contains no memory or wall-clock
          numbers *)
}

val run :
  ?syn_cookies:bool ->
  ?fast_path:bool ->
  ?conns:int ->
  ?events:int ->
  ?churn_every:int ->
  ?seed:int ->
  unit ->
  result
(** Defaults: cookies on, 100k connections, 50k churn events, a close
    every 16th event, seed 42. *)

type flood = {
  f_syns : int;
  f_cookies_sent : int;
  f_tcbs_allocated : int;  (** store-live delta — zero when stateless *)
  f_connections : int;
  f_minor_words_per_syn : float;
  f_snapshot : string;
}

val syn_flood : ?syns:int -> seed:int -> unit -> flood
(** SYN flood against a cookie listener: distinct 4-tuples, handshakes
    never completed.  The stateless listen path must allocate no TCBs
    and keep per-SYN allocation flat. *)
