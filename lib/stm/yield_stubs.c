/* sched_yield(2) for the wait ladder's yield phase.  Declared
   [@@noalloc]: it touches no OCaml value and returns at once. */
#include <sched.h>
#include <caml/mlvalues.h>

value tcm_sched_yield(value unit)
{
  (void)unit;
  sched_yield();
  return Val_unit;
}
