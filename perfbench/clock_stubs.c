/* Monotonic nanosecond clock for span timing (Unix.gettimeofday only
   resolves microseconds, too coarse for a ~100 ns consult). */
#include <time.h>
#include <caml/mlvalues.h>

intnat pb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value pb_now_ns_byte(value unit)
{
  return Val_long(pb_now_ns(unit));
}
