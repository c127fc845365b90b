type counter = { c_name : string; mutable c_value : int }

type gauge_cell =
  | Level of float
  | Probe of (unit -> float)

type entry =
  | E_counter of counter
  | E_gauge of gauge_cell ref
  | E_hist of Log_hist.t

type t = (string, entry) Hashtbl.t

let create () : t = Hashtbl.create 64

let kind_name = function
  | E_counter _ -> "counter"
  | E_gauge _ -> "gauge"
  | E_hist _ -> "histogram"

let mismatch name entry want =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a %s, wanted a %s" name
       (kind_name entry) want)

let counter t name =
  match Hashtbl.find_opt t name with
  | Some (E_counter c) -> c
  | Some e -> mismatch name e "counter"
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.add t name (E_counter c);
      c

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value

let counter_value t name =
  match Hashtbl.find_opt t name with
  | Some (E_counter c) -> c.c_value
  | _ -> 0

let gauge_cell t name =
  match Hashtbl.find_opt t name with
  | Some (E_gauge g) -> g
  | Some e -> mismatch name e "gauge"
  | None ->
      let g = ref (Level 0.) in
      Hashtbl.add t name (E_gauge g);
      g

let set_gauge t name v = gauge_cell t name := Level v
let probe t name f = gauge_cell t name := Probe f
let sample_gauge g = match !g with Level v -> v | Probe f -> f ()

let gauge_value t name =
  match Hashtbl.find_opt t name with
  | Some (E_gauge g) -> sample_gauge g
  | _ -> 0.

let histogram t name =
  match Hashtbl.find_opt t name with
  | Some (E_hist h) -> h
  | Some e -> mismatch name e "histogram"
  | None ->
      let h = Log_hist.create () in
      Hashtbl.add t name (E_hist h);
      h

type hist_summary = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

type value_snapshot =
  | Counter of int
  | Gauge of float
  | Histogram of hist_summary

type snapshot = (string * value_snapshot) list

let summarize h =
  {
    count = Log_hist.count h;
    mean = Log_hist.mean h;
    p50 = Log_hist.percentile h 50.;
    p90 = Log_hist.percentile h 90.;
    p99 = Log_hist.percentile h 99.;
    max = Log_hist.max_value h;
  }

let under_prefix prefix name =
  match prefix with
  | None -> true
  | Some p ->
      let lp = String.length p and ln = String.length name in
      ln >= lp
      && String.sub name 0 lp = p
      && (ln = lp || name.[lp] = '.')

let snapshot ?prefix t =
  Hashtbl.fold
    (fun name entry acc ->
      if under_prefix prefix name then
        let v =
          match entry with
          | E_counter c -> Counter c.c_value
          | E_gauge g -> Gauge (sample_gauge g)
          | E_hist h -> Histogram (summarize h)
        in
        (name, v) :: acc
      else acc)
    t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find snap name = List.assoc_opt name snap

let snap_counter snap name =
  match find snap name with Some (Counter n) -> n | _ -> 0

let snap_gauge snap name =
  match find snap name with Some (Gauge v) -> v | _ -> 0.

let pp_value fmt = function
  | Counter n -> Format.fprintf fmt "%d" n
  | Gauge v -> Format.fprintf fmt "%.4g" v
  | Histogram h ->
      Format.fprintf fmt "n=%d mean=%.1f p50=%d p99=%d max=%d" h.count h.mean
        h.p50 h.p99 h.max
