package repro.perfbench

import repro.core.{BoundResult, Bounder, CoverageIndex}

/** A [[Bounder]] that delegates to `inner` and records one
  * `bound.computeBound` span per call, with the call and τ-evaluation counts.
  * It changes no result: the benchmark pins that a decorated search returns
  * the same candidates and σ as a plain one.
  */
final class TracingBounder(inner: Bounder, tracer: Tracer) extends Bounder {

  override def idx: CoverageIndex = inner.idx

  override def order: Array[Int] = inner.order

  override def tauEvals: Long = inner.tauEvals

  override def computeBound(base: Array[Int], freeFrom: Int, k: Int): BoundResult = {
    val evals0 = inner.tauEvals
    val r = tracer.span("bound.computeBound")(inner.computeBound(base, freeFrom, k))
    tracer.add("bound.calls", 1)
    tracer.add("bound.tau_evals", (inner.tauEvals - evals0).toDouble)
    r
  }
}
