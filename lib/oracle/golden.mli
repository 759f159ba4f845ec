(** Golden-regression harness: snapshot [Tdp.Flow.run] metrics for a
    fixed matrix of (design, method) cases into JSON files and compare
    later runs against them under a per-field tolerance policy (integers
    exact, floats to a small relative tolerance, runtimes ignored).
    Flow results do not depend on the domain count, so a snapshot runs at
    whatever count is set. [bin/golden.exe] is the CLI over this. *)

(** An entry's design: a [Workloads.Suite] design at a scale, or a file
    loaded through [Formats.Auto.load], named [stem] (reported scale 1). *)
type source = Suite of { short : string; scale : float } | File of { stem : string; path : string }

type entry = { source : source; method_ : Tdp.Flow.method_ }

(** The committed matrix: the paper's flow on the committed Bookshelf
    fixture (path relative to the repository root), then two small suite
    designs, vanilla and the paper's flow. *)
val default_entries : entry list

(** The suite short name or file stem of an entry, e.g. ["sb1"]. *)
val design_name : entry -> string

(** Stable file stem of an entry, e.g. ["sb1-vanilla"]. *)
val entry_name : entry -> string

(** Run the flow for one entry and return the comparable subset of the
    result as JSON: final and raw-GP metrics, curve length, extraction
    round count. *)
val snapshot : entry -> Obs.Json.t

(** Relative tolerance applied to float fields on [check] (1e-6). *)
val float_rtol : float

(** Structural comparison under the tolerance policy; [path] prefixes
    mismatch messages. Exposed for tests. *)
val compare_json : path:string -> golden:Obs.Json.t -> got:Obs.Json.t -> string list

(** Re-run every entry and diff against [dir]/<name>.json. [Ok] when all
    match; [Error] carries one message per mismatching field or missing
    golden. An unreadable [File] design raises [Util.Errors.Error
    (Parse_failed _)], as does {!regen}. *)
val check : dir:string -> entry list -> (unit, string list) result

(** Write (or overwrite) [dir]/<name>.json for every entry. Returns the
    files written. *)
val regen : dir:string -> entry list -> string list
