(** The daemon's length-prefixed binary wire protocol: a u32 LE frame
    length, then a payload of [u8 version, u8 opcode, fields] (ints LE,
    floats as IEEE-754 bits, strings length-prefixed, options tagged).
    Codec and framing are exposed separately so the codec can be
    property-tested without sockets. *)

val version : int

(** Hard upper bound on a frame payload; larger lengths are a protocol
    violation, not a big request. *)
val max_frame : int

type reject_reason =
  | Busy           (** admission-queue timeout: too many in-flight requests *)
  | Shutting_down  (** the daemon is draining *)

val reject_to_string : reject_reason -> string

(** How an analyze request was served: [Hit] straight off a resident
    engine, [Delta] after patching a snapshot of another version or app,
    [Miss] after loading an unchanged snapshot or a cold build. *)
type cache_state = Hit | Delta | Miss

val cache_to_string : cache_state -> string

type request =
  | Analyze of {
      spec : Appspec.t;
      snapshot : string option;
          (** serve from / persist to this snapshot path *)
      time_limit_ms : float option;
          (** per-sink wall-clock budget for this request *)
    }
  | Query of {
      spec : Appspec.t;
      snapshot : string option;
      kind : string;    (** a {!Bytesearch.Query} constructor name *)
      operand : string;
    }
  | Stats
  | Shutdown

type response =
  | Analyzed of { text : string; cache : cache_state; wall_us : float }
      (** [text] is the full one-shot-CLI analyze transcript *)
  | Queried of { total : int; lines : string list; wall_us : float }
  | Stats_json of string
  | Rejected of reject_reason
  | Shutdown_ok
  | Error of string

(* -- codec (pure) ---------------------------------------------------- *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

(* -- framing over fds ------------------------------------------------ *)

val send_request : Unix.file_descr -> request -> unit
val send_response : Unix.file_descr -> response -> unit

(** [`Eof] on clean close at a frame boundary; [`Err] on malformed
    frames. *)
val recv_request : Unix.file_descr -> [ `Eof | `Ok of request | `Err of string ]

val recv_response : Unix.file_descr -> (response, string) result
