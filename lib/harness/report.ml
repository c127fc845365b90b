let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let mps v = Printf.sprintf "%.2fM" (v /. 1e6)
let kps v = Printf.sprintf "%.0fK" (v /. 1e3)
let gbps v = Printf.sprintf "%.2f" v
let us v = Printf.sprintf "%.1f" v
let pct v = Printf.sprintf "%.1f%%" (100. *. v)

let table ~title ~headers rows =
  let all = headers :: rows in
  let columns = List.length headers in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init columns width in
  let pad c s = s ^ String.make (max 0 (List.nth widths c - String.length s)) ' ' in
  let line row = String.concat "  " (List.mapi pad row) in
  let rule =
    String.concat "--" (List.map (fun w -> String.make w '-') widths)
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "\n== %s ==\n%s\n%s\n" title (line headers) rule;
  List.iter (fun row -> Printf.bprintf b "%s\n" (line row)) rows;
  Buffer.contents b
