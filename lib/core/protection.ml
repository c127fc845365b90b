type domain = Vmx_root | Dataplane_kernel | User

exception Protection_violation of string

(* A non-root ring crossing costs about one L3 miss; a VM transition
   to the control plane far more. *)
let ring_crossing_ns = 90
let vm_transition_ns = 1_500

type t = { mutable domain : domain; mutable crossing_count : int }

let create () = { domain = Dataplane_kernel; crossing_count = 0 }

let current t = t.domain

let name = function
  | Vmx_root -> "vmx-root"
  | Dataplane_kernel -> "dataplane-kernel"
  | User -> "user"

let enter_user t =
  if t.domain <> Dataplane_kernel then
    raise (Protection_violation ("enter_user from " ^ name t.domain));
  t.domain <- User;
  t.crossing_count <- t.crossing_count + 1;
  ring_crossing_ns

let enter_kernel t =
  if t.domain <> User then
    raise (Protection_violation ("enter_kernel from " ^ name t.domain));
  t.domain <- Dataplane_kernel;
  t.crossing_count <- t.crossing_count + 1;
  ring_crossing_ns

let control_plane_call t =
  (* Full VM exit + entry, from either non-root domain. *)
  t.crossing_count <- t.crossing_count + 2;
  2 * vm_transition_ns

let require t domain =
  if t.domain <> domain then
    raise
      (Protection_violation
         (Printf.sprintf "required %s but running in %s" (name domain) (name t.domain)))

let crossings t = t.crossing_count
