(** The wire-level description of a synthetic app: everything the CLI's
    app flags carry, with shapes and sinks by name.  Both the one-shot CLI
    and the daemon turn a spec into an app through {!generate}, so a
    served analysis and a one-shot analysis see the identical program. *)

type t = {
  seed : int;
  size_mb : float;
  plants : (string * string) list;
      (** (shape name, sink name) pairs; [[]] plants the default
          [direct:cipher] flow *)
  insecure : bool;
  mutate_pct : float;
      (** mutate this fraction of filler classes after generation
          (version N+1 simulation); [0.0] = pristine *)
}

val default : t

(** Sink registry of the CLI: name to sink spec. *)
val sink_names : (string * Framework.Sinks.t) list

(** The generated app's name, [com.cli.app<seed>] — matches the CLI. *)
val app_name : t -> string

(** Deterministic digest of the spec for cache keys. *)
val fingerprint : t -> string

(** Human-readable one-liner for logs. *)
val to_string : t -> string

(** Resolve names into a generator config: [Error] on an unknown shape or
    sink name, on a [size_mb] outside [(0, 1024]] and on a [mutate_pct]
    outside [[0, 1]] (NaN and infinities included), so that no spec makes
    the daemon generate an app without bound. *)
val resolve : t -> (Appgen.Generator.config, string) result

(** Generate the app (resolving first); applies the mutation pass when
    [mutate_pct > 0], disassembling only the mutated program.
    [build_dex:false] skips disassembly, as every front end does. *)
val generate : ?build_dex:bool -> t -> (Appgen.Generator.app, string) result
