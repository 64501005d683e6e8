(** Shared JSON fragment helpers for the tree's hand-rolled writers (no json
    dependency).  All float rendering clamps non-finite values first —
    [Printf "%f"] prints [inf]/[nan], which is not valid JSON. *)

(** JSON string-escape (quotes, backslashes, control characters). *)
val escape : string -> string

(** [nan -> 0.], [±inf -> ±max_float], finite floats unchanged. *)
val clamp : float -> float

(** Finite-clamped float as a JSON number with [dec] decimals (default 1). *)
val number : ?dec:int -> float -> string

val str_field : string -> string -> string
val int_field : string -> int -> string
val num_field : ?dec:int -> string -> float -> string

(** Minimal line-oriented field readers for the writers above (used by the
    exporters' round-trip parsers): first value of ["key":...] on a line. *)

val field_str : string -> string -> string option
val field_int : string -> string -> int option
