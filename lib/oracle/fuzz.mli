(** Seeded shrinking fuzzer: random generator parameters are drawn from a
    deterministic stream, the whole oracle battery runs on each generated
    design, and any failure is greedily shrunk to a minimal parameter set
    before being reported (and optionally dumped to disk for replay). *)

(** One property over a freshly generated design. [check] must be
    deterministic in the design (it may mutate the placement — every
    invocation receives its own [Workloads.Generate.generate] output).
    Exceptions escaping [check] count as failures. *)
type prop = { name : string; check : Netlist.Design.t -> (unit, string) result }

type failure = {
  prop_name : string;
  params : Workloads.Genparams.t; (* shrunk: regenerate + recheck to replay *)
  message : string; (* diagnostic of the shrunk counterexample *)
  dump : string option; (* design file written under [dump_dir], if any *)
}

val params_to_string : Workloads.Genparams.t -> string

(** Run [prop] on the design generated from the given parameters,
    converting escaped exceptions into [Error]. *)
val check_params : prop -> Workloads.Genparams.t -> (unit, string) result

(** Greedy shrink: repeatedly halve each size knob toward its floor (and
    zero the hub probability / macro count), keeping any candidate that
    still fails. Returns the minimised parameters and their failure
    message. [params] must currently fail [prop]. *)
val shrink : prop -> Workloads.Genparams.t -> Workloads.Genparams.t * string

(** The standard battery: full-STA differential, Elmore vs the naive
    walk, WA finite differences, density direct + mass, k-worst paths vs
    exhaustive DFS, and a random-walk incremental-STA differential. *)
val default_props : prop list

(** Format robustness: serialize the design to Bookshelf / LEF+DEF in a
    temp directory, corrupt one byte at a time (deterministic positions),
    and reparse. A clean parse, [Formats.Scan.Parse_error] and a structural
    [Invalid_design] are all acceptable outcomes; any other escaped
    exception fails the property. *)
val format_props : prop list

(** [run ~seed ~iters props] draws [iters] parameter sets from the seeded
    stream and checks every property on each. Failures come back shrunk;
    when [dump_dir] is given, each failure's design is also written
    there as a Bookshelf bundle ([failure.dump] names its [.aux]; reload
    it with [Formats.Auto.load] to reproduce the design bit for bit),
    next to a [.txt] with the parameters and message. *)
val run :
  ?dump_dir:string -> ?iters:int -> seed:int -> prop list -> failure list
