(** The typed error taxonomy for the placement pipeline. User-provokable
    failures raise {!Error} with a structured payload; binaries map it to
    a distinct exit code and a machine-readable report. Programmer errors
    stay as [Invalid_argument]/assertions. *)

type t =
  | Invalid_design of { design : string; problems : string list }
  | Diverged of { stage : string; detail : string; recoveries : int }
  | Config_error of { what : string; detail : string }
  | Infeasible of { stage : string; detail : string }
  | Parse_failed of { file : string; line : int; detail : string }

exception Error of t

val fail : t -> 'a

val invalid_design : design:string -> string list -> 'a

val diverged : stage:string -> ?recoveries:int -> string -> 'a

val config_error : what:string -> string -> 'a

val infeasible : stage:string -> string -> 'a

val parse_failed : file:string -> line:int -> string -> 'a

(** Stable machine-readable tag: invalid_design | diverged |
    config_error | infeasible | parse_error. *)
val kind : t -> string

(** Distinct nonzero process exit code per kind: config_error 2,
    invalid_design 3, diverged 4, infeasible 5, parse_error 6 (1 stays
    reserved for unexpected exceptions, 124/125 for cmdliner). *)
val exit_code : t -> int

(** Human-readable one-liner. *)
val message : t -> string

(** [or_exit f] runs [f]; on [Error e] it prints
    ["error [<kind>]: <message>"] to stderr and exits with
    [exit_code e]. The shared handler of the small CLI tools. *)
val or_exit : (unit -> 'a) -> 'a

(** Flat key/value payload for structured reports. *)
val fields : t -> (string * string) list
