type handle = int

type syscall =
  | Sys_connect of { cookie : int; dst_ip : Ixnet.Ip_addr.t; dst_port : int }
  | Sys_accept of { handle : handle; cookie : int }
  | Sys_sendv of { handle : handle; queue : Ixmem.Iov_deque.t }
  | Sys_recv_done of { handle : handle; bytes_acked : int }
  | Sys_close of { handle : handle }
  | Sys_abort of { handle : handle }
  | Sys_udp_sendv of {
      src_port : int;
      dst_ip : Ixnet.Ip_addr.t;
      dst_port : int;
      iovs : Ixmem.Iovec.t list;
    }

type event =
  | Ev_knock of {
      handle : handle;
      src_ip : Ixnet.Ip_addr.t;
      src_port : int;
      dst_port : int;  (** listening port, so libix can find the acceptor *)
    }
  | Ev_connected of { mutable cookie : int; handle : handle; ok : bool }
  | Ev_recv of { mutable cookie : int; mbuf : Ixmem.Mbuf.t; off : int; len : int }
  | Ev_sent of { mutable cookie : int; bytes_sent : int; window_size : int }
  | Ev_dead of { mutable cookie : int; reason : Ixtcp.Tcb.close_reason }
  | Ev_udp_recv of {
      dst_port : int;
      src_ip : Ixnet.Ip_addr.t;
      src_port : int;
      mbuf : Ixmem.Mbuf.t;
      off : int;
      len : int;
    }

type syscall_result = int
