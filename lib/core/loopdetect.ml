(** Dead-method-loop detection (implementation enhancement 3, Sec. IV-F).

    Four loop types are distinguished in BackDroid's output: cross-method and
    inner loops, in both the backward-search and the forward-object-taint
    scenarios.  A loop is "detected" when the analysis is about to revisit a
    method already on its current path; the analysis then prunes instead of
    iterating forever. *)

type kind = Cross_backward | Inner_backward | Cross_forward | Inner_forward

let kind_to_string = function
  | Cross_backward -> "CrossBackward"
  | Inner_backward -> "InnerBackward"
  | Cross_forward -> "CrossForward"
  | Inner_forward -> "InnerForward"

type stats = {
  mutable cross_backward : int;
  mutable inner_backward : int;
  mutable cross_forward : int;
  mutable inner_forward : int;
}

let create () =
  { cross_backward = 0; inner_backward = 0; cross_forward = 0; inner_forward = 0 }

let record t = function
  | Cross_backward -> t.cross_backward <- t.cross_backward + 1
  | Inner_backward -> t.inner_backward <- t.inner_backward + 1
  | Cross_forward -> t.cross_forward <- t.cross_forward + 1
  | Inner_forward -> t.inner_forward <- t.inner_forward + 1

let total t = t.cross_backward + t.inner_backward + t.cross_forward + t.inner_forward

let get t = function
  | Cross_backward -> t.cross_backward
  | Inner_backward -> t.inner_backward
  | Cross_forward -> t.cross_forward
  | Inner_forward -> t.inner_forward

(** Is [m] already on [path]?  If so the caller should record the loop kind
    and prune. *)
let on_path path m = List.exists (Ir.Jsig.meth_equal m) path
