(** A process-wide registry of named counters and log-scale histograms,
    sharded per domain and merged deterministically at snapshot.

    Registration ([counter] / [histogram]) interns the name under a mutex
    and returns a dense integer handle — do it once at module toplevel.
    Recording ([incr] / [add] / [observe]) touches only the calling domain's
    shard (via [Domain.DLS]): no mutex, no atomic RMW on the hot path.

    The merge sums integer counters and integer bucket counts across shards,
    so the merged values are independent of how work was scheduled over
    domains — the tests that run one analysis session from several domains
    at once rely on this (float
    histogram sums are also merged, but addition order follows shard
    registration order and timing-derived samples vary anyway, so only the
    integer parts are deterministic).  Snapshot and reset are meant to run
    while the instrumented workload is quiescent. *)

let n_buckets = 64

(* -- Registry -------------------------------------------------------- *)

type kind = Counter | Histogram

let lock = Mutex.create ()
let names : (string, int) Hashtbl.t = Hashtbl.create 64
let labels : string array ref = ref [||]
let kinds : kind array ref = ref [||]
let registered = ref 0

let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let register kind name =
  Mutex.lock lock;
  let id =
    match Hashtbl.find_opt names name with
    | Some id ->
      (* idempotent, but a name cannot change kind *)
      assert (!kinds.(id) = kind);
      id
    | None ->
      let id = !registered in
      if id >= Array.length !labels then begin
        let cap = max 64 (2 * Array.length !labels) in
        let l = Array.make cap "" and k = Array.make cap Counter in
        Array.blit !labels 0 l 0 id;
        Array.blit !kinds 0 k 0 id;
        labels := l;
        kinds := k
      end;
      !labels.(id) <- name;
      !kinds.(id) <- kind;
      Hashtbl.replace names name id;
      incr registered;
      id
  in
  Mutex.unlock lock;
  id

type counter = int
type histogram = int

let counter name : counter = register Counter name
let histogram name : histogram = register Histogram name

(* -- Shards ---------------------------------------------------------- *)

type shard = {
  mutable counts : int array;          (* per id: counter value *)
  mutable buckets : int array array;   (* per id: histogram bucket counts *)
  mutable sh_count : int array;
  mutable sh_sum : float array;
  mutable sh_min : float array;
  mutable sh_max : float array;
}

let shards : shard list ref = ref []

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        { counts = [||]; buckets = [||]; sh_count = [||]; sh_sum = [||];
          sh_min = [||]; sh_max = [||] }
      in
      Mutex.lock lock;
      shards := s :: !shards;
      Mutex.unlock lock;
      s)

(* Owner-domain-only growth: arrays are replaced, never shrunk.  Snapshots
   run post-quiescence, so they observe the final arrays. *)
let ensure s id =
  if id >= Array.length s.counts then begin
    let cap = max 64 (max (2 * Array.length s.counts) (id + 1)) in
    let grow_i a = let b = Array.make cap 0 in Array.blit a 0 b 0 (Array.length a); b in
    let grow_f init a =
      let b = Array.make cap init in Array.blit a 0 b 0 (Array.length a); b
    in
    let grow_b a =
      let b = Array.make cap [||] in Array.blit a 0 b 0 (Array.length a); b
    in
    s.counts <- grow_i s.counts;
    s.buckets <- grow_b s.buckets;
    s.sh_count <- grow_i s.sh_count;
    s.sh_sum <- grow_f 0.0 s.sh_sum;
    s.sh_min <- grow_f Float.infinity s.sh_min;
    s.sh_max <- grow_f Float.neg_infinity s.sh_max
  end

let self_shard () = Domain.DLS.get shard_key

let add c by =
  if Atomic.get enabled_flag then begin
    let s = self_shard () in
    ensure s c;
    s.counts.(c) <- s.counts.(c) + by
  end

let incr c = add c 1

(* Log-scale bucket of [v]: bucket 0 holds v < 1 (and non-finite junk),
   bucket k (1 <= k < n_buckets) holds 2^(k-1) <= v < 2^k, the last bucket
   absorbs the tail. *)
let bucket_of v =
  if Float.is_nan v || v < 1.0 then 0
  else
    let b = 1 + int_of_float (Float.floor (Float.log2 v)) in
    if b < 1 then 1 else if b >= n_buckets then n_buckets - 1 else b

let observe h v =
  if Atomic.get enabled_flag then begin
    let s = self_shard () in
    ensure s h;
    if Array.length s.buckets.(h) = 0 then
      s.buckets.(h) <- Array.make n_buckets 0;
    let b = s.buckets.(h) in
    b.(bucket_of v) <- b.(bucket_of v) + 1;
    s.sh_count.(h) <- s.sh_count.(h) + 1;
    let v = Jsonf.clamp v in
    s.sh_sum.(h) <- s.sh_sum.(h) +. v;
    if v < s.sh_min.(h) then s.sh_min.(h) <- v;
    if v > s.sh_max.(h) then s.sh_max.(h) <- v
  end

(* -- Snapshot -------------------------------------------------------- *)

type histo = {
  h_count : int;
  h_sum : float;
  h_min : float;   (** 0. when empty *)
  h_max : float;   (** 0. when empty *)
  h_buckets : (int * int) list;
      (** (bucket exponent, count), non-zero buckets only, ascending:
          exponent [k] covers [2^(k-1), 2^k) (0 covers values < 1) *)
}

type snapshot = {
  counters : (string * int) list;        (** sorted by name *)
  histograms : (string * histo) list;    (** sorted by name *)
}

(* Merge histogram [id] across [shards].  Each array is read once and
   bounds-checked on its own, so a merge racing an owner domain's [ensure]
   sees an old or a new array, never an index past its end. *)
let merge_histo shards id =
  let merged = Array.make n_buckets 0 in
  let count = ref 0 and sum = ref 0.0 in
  let mn = ref Float.infinity and mx = ref Float.neg_infinity in
  List.iter
    (fun s ->
       let cs = s.sh_count and sums = s.sh_sum and mins = s.sh_min in
       let maxs = s.sh_max and bs = s.buckets in
       if id < Array.length cs && id < Array.length sums
          && id < Array.length mins && id < Array.length maxs
          && id < Array.length bs
       then begin
         count := !count + cs.(id);
         sum := !sum +. sums.(id);
         if mins.(id) < !mn then mn := mins.(id);
         if maxs.(id) > !mx then mx := maxs.(id);
         Array.iteri (fun i c -> merged.(i) <- merged.(i) + c) bs.(id)
       end)
    shards;
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    if merged.(i) > 0 then buckets := (i, merged.(i)) :: !buckets
  done;
  let empty = !count = 0 in
  { h_count = !count; h_sum = !sum;
    h_min = (if empty then 0.0 else !mn);
    h_max = (if empty then 0.0 else !mx);
    h_buckets = !buckets }

let snapshot () =
  Mutex.lock lock;
  let n = !registered in
  let labels = Array.sub !labels 0 n in
  let kinds = Array.sub !kinds 0 n in
  let shards = !shards in
  Mutex.unlock lock;
  let counters = ref [] and histograms = ref [] in
  for id = n - 1 downto 0 do
    match kinds.(id) with
    | Counter ->
      let v =
        List.fold_left
          (fun acc s ->
             if id < Array.length s.counts then acc + s.counts.(id) else acc)
          0 shards
      in
      counters := (labels.(id), v) :: !counters
    | Histogram ->
      histograms := (labels.(id), merge_histo shards id) :: !histograms
  done;
  let by_name (a, _) (b, _) = String.compare a b in
  { counters = List.sort by_name !counters;
    histograms = List.sort by_name !histograms }

let read h =
  Mutex.lock lock;
  let shards = !shards in
  Mutex.unlock lock;
  merge_histo shards h

(** Zero every shard of every registered metric (run while quiescent). *)
let reset () =
  Mutex.lock lock;
  let shards = !shards in
  Mutex.unlock lock;
  List.iter
    (fun s ->
       Array.fill s.counts 0 (Array.length s.counts) 0;
       Array.iter (fun b -> Array.fill b 0 (Array.length b) 0) s.buckets;
       Array.fill s.sh_count 0 (Array.length s.sh_count) 0;
       Array.fill s.sh_sum 0 (Array.length s.sh_sum) 0.0;
       Array.fill s.sh_min 0 (Array.length s.sh_min) Float.infinity;
       Array.fill s.sh_max 0 (Array.length s.sh_max) Float.neg_infinity)
    shards

(** Estimate the [q]-quantile (q in [0,1]) of a merged histogram from its
    log2 buckets: walk to the bucket holding rank [q*count], interpolate
    linearly inside its [2^(k-1), 2^k) range, and clamp to the observed
    [min,max] (which tightens the coarse bucket bounds at the extremes). *)
let quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int h.h_count in
    let rec go cum = function
      | [] -> h.h_max
      | (k, c) :: rest ->
        let cum' = cum +. float_of_int c in
        if cum' >= rank then begin
          let lo = if k <= 0 then 0.0 else Float.pow 2.0 (float_of_int (k - 1)) in
          let hi = if k <= 0 then 1.0 else Float.pow 2.0 (float_of_int k) in
          let frac = if c = 0 then 0.0 else (rank -. cum) /. float_of_int c in
          let v = lo +. (frac *. (hi -. lo)) in
          Float.min h.h_max (Float.max h.h_min v)
        end
        else go cum' rest
    in
    go 0.0 h.h_buckets
  end

(* -- Rendering ------------------------------------------------------- *)

let bucket_label k =
  if k = 0 then "<1"
  else if k = 1 then "[1,2)"
  else Printf.sprintf "[2^%d,2^%d)" (k - 1) k

let render_table snap =
  let b = Buffer.create 1024 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  bpf "  %-36s %12s\n" "counter" "value";
  List.iter (fun (name, v) -> bpf "  %-36s %12d\n" name v) snap.counters;
  List.iter
    (fun (name, h) ->
       bpf "  %-36s %12s  count=%d sum=%.1f min=%.1f max=%.1f\n" name
         "histogram" h.h_count h.h_sum h.h_min h.h_max;
       List.iter
         (fun (k, c) ->
            bpf "    %-12s %8d  %s\n" (bucket_label k) c
              (String.make (min 50 c) '#'))
         h.h_buckets)
    snap.histograms;
  Buffer.contents b

let render_json snap =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b
         (Printf.sprintf "\n    \"%s\": %d" (Jsonf.escape name) v))
    snap.counters;
  Buffer.add_string b "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (name, h) ->
       if i > 0 then Buffer.add_char b ',';
       let buckets =
         String.concat ", "
           (List.map
              (fun (k, c) -> Printf.sprintf "\"%d\": %d" k c)
              h.h_buckets)
       in
       Buffer.add_string b
         (Printf.sprintf
            "\n    \"%s\": {%s, %s, %s, %s, %s, %s, %s, \"buckets\": {%s}}"
            (Jsonf.escape name)
            (Jsonf.int_field "count" h.h_count)
            (Jsonf.num_field "sum" h.h_sum)
            (Jsonf.num_field "min" h.h_min)
            (Jsonf.num_field "max" h.h_max)
            (Jsonf.num_field "p50" (quantile h 0.5))
            (Jsonf.num_field "p90" (quantile h 0.9))
            (Jsonf.num_field "p99" (quantile h 0.99))
            buckets))
    snap.histograms;
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b

let write_json path snap = Io.write_string path (render_json snap)
