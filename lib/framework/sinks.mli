(** The security-sensitive sink API catalog.

    A sink is pure data — display name, target signature, and the index of
    the argument the slicer backtracks.  Detection rules (the [Rules]
    library) reference these values or construct their own. *)

type t = {
  name : string;           (** stable display label, e.g. ["crypto-cipher"] *)
  msig : Ir.Jsig.meth;
  param_index : int;
      (** index of the security-relevant parameter (receiver excluded) *)
}

val cipher : t
val ssl_factory : t
val https_conn : t
val sms : t
val server_socket : t
val local_socket : t
val webview_js : t
val webview_bridge : t
val sql_query : t
val intent_redirect : t

(** The three sink APIs of the paper's evaluation (Sec. VI-A). *)
val primary : t list

val catalog : t list

(** [catalog] plus the WebView / SQL-injection / intent-redirection sinks. *)
val extended : t list

(** Sym-keyed signature lookup, built once per sink set; {!find} is one
    integer hash per probe (the old [find_by_msig] walked the list with
    structural signature comparisons on every disassembled call site). *)
type index

val index : t list -> index
val find : index -> Ir.Jsig.meth -> t option
