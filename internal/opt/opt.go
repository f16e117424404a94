// Package opt provides the classical optimizers driving the VQE loop
// (paper §3.1 step 4): Nelder–Mead simplex and L-BFGS, plus
// finite-difference gradients. Both minimize and are deterministic given
// their options.
package opt

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// Objective is a scalar function of a parameter vector.
type Objective func(x []float64) float64

// Gradient fills g with ∂f/∂x at x.
type Gradient func(x []float64, g []float64)

// Result reports an optimization outcome.
type Result struct {
	X           []float64
	F           float64
	Iterations  int
	Evaluations int
	Converged   bool
	// Interrupted is set when an Observer halted the loop early (deadline
	// cancellation, crash drill); X/F then carry the best point so far.
	Interrupted bool
}

// FiniteDifference returns a central-difference gradient of f with step h
// (default 1e-6 if h <= 0).
func FiniteDifference(f Objective, h float64) Gradient {
	if h <= 0 {
		h = 1e-6
	}
	return func(x, g []float64) {
		xx := append([]float64(nil), x...)
		for i := range x {
			xx[i] = x[i] + h
			fp := f(xx)
			xx[i] = x[i] - h
			fm := f(xx)
			xx[i] = x[i]
			g[i] = (fp - fm) / (2 * h)
		}
	}
}

// NelderMeadOptions tunes the simplex method.
type NelderMeadOptions struct {
	MaxIter  int     // default 200·dim
	FTol     float64 // spread tolerance, default 1e-10
	InitStep float64 // initial simplex displacement, default 0.1
	// Resume continues from a captured state instead of building the
	// initial simplex around x0 (x0 must still have the right length).
	// Iteration and evaluation counters carry over, so MaxIter bounds
	// the *total* across the original run and every resume.
	Resume *NelderMeadState
	// Observer is called at the top of every iteration with a deep copy
	// of the current state (simplex sorted best-first). A non-nil return
	// halts the loop: the result carries the best vertex so far with
	// Interrupted set. Used for checkpointing and cooperative
	// cancellation.
	Observer func(*NelderMeadState) error
}

// vertex is one simplex corner: a point and its objective value.
type vertex struct {
	x []float64
	f float64
}

// captureNelderMead deep-copies the live simplex into an observer/
// checkpoint snapshot.
func captureNelderMead(simplex []vertex, iter, evals int) *NelderMeadState {
	st := &NelderMeadState{
		Simplex: make([][]float64, len(simplex)),
		Values:  make([]float64, len(simplex)),
		Iter:    iter,
		Evals:   evals,
	}
	for i, v := range simplex {
		st.Simplex[i] = copyVec(v.x)
		st.Values[i] = v.f
	}
	return st
}

// NelderMead minimizes f from x0 with the adaptive simplex method.
func NelderMead(f Objective, x0 []float64, o NelderMeadOptions) Result {
	dim := len(x0)
	if dim == 0 {
		return Result{X: nil, F: f(nil), Evaluations: 1, Converged: true}
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200 * dim
	}
	if o.FTol <= 0 {
		o.FTol = 1e-10
	}
	if o.InitStep == 0 {
		o.InitStep = 0.1
	}
	// Adaptive coefficients (Gao & Han) improve high-dimensional behavior.
	alpha := 1.0
	beta := 1.0 + 2.0/float64(dim)
	gamma := 0.75 - 1.0/(2*float64(dim))
	delta := 1.0 - 1.0/float64(dim)

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}
	simplex := make([]vertex, dim+1)
	iter := 0
	if o.Resume != nil {
		if len(o.Resume.Simplex) != dim+1 || len(o.Resume.Values) != dim+1 {
			panic(fmt.Errorf("%w: resume state has %d vertices for dimension %d",
				core.ErrInvalidArgument, len(o.Resume.Simplex), dim))
		}
		for i := range simplex {
			simplex[i] = vertex{x: copyVec(o.Resume.Simplex[i]), f: o.Resume.Values[i]}
		}
		iter = o.Resume.Iter
		evals = o.Resume.Evals
	} else {
		simplex[0] = vertex{x: append([]float64(nil), x0...), f: eval(x0)}
		for i := 1; i <= dim; i++ {
			x := append([]float64(nil), x0...)
			x[i-1] += o.InitStep
			simplex[i] = vertex{x: x, f: eval(x)}
		}
	}

	centroid := make([]float64, dim)
	trial := make([]float64, dim)
	for ; iter < o.MaxIter; iter++ {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
		if o.Observer != nil {
			if err := o.Observer(captureNelderMead(simplex, iter, evals)); err != nil {
				return Result{X: simplex[0].x, F: simplex[0].f, Iterations: iter, Evaluations: evals, Interrupted: true}
			}
		}
		if math.Abs(simplex[dim].f-simplex[0].f) < o.FTol*(1+math.Abs(simplex[0].f)) {
			return Result{X: simplex[0].x, F: simplex[0].f, Iterations: iter, Evaluations: evals, Converged: true}
		}
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < dim; i++ {
			for j, v := range simplex[i].x {
				centroid[j] += v / float64(dim)
			}
		}
		// Reflect.
		for j := range trial {
			trial[j] = centroid[j] + alpha*(centroid[j]-simplex[dim].x[j])
		}
		fr := eval(trial)
		switch {
		case fr < simplex[0].f:
			// Expand.
			exp := make([]float64, dim)
			for j := range exp {
				exp[j] = centroid[j] + beta*(trial[j]-centroid[j])
			}
			fe := eval(exp)
			if fe < fr {
				simplex[dim] = vertex{x: exp, f: fe}
			} else {
				simplex[dim] = vertex{x: append([]float64(nil), trial...), f: fr}
			}
		case fr < simplex[dim-1].f:
			simplex[dim] = vertex{x: append([]float64(nil), trial...), f: fr}
		default:
			// Contract (outside if reflection helped at all, else inside).
			ref := simplex[dim].x
			if fr < simplex[dim].f {
				for j := range trial {
					trial[j] = centroid[j] + gamma*(trial[j]-centroid[j])
				}
			} else {
				for j := range trial {
					trial[j] = centroid[j] - gamma*(centroid[j]-ref[j])
				}
			}
			fc := eval(trial)
			if fc < math.Min(fr, simplex[dim].f) {
				simplex[dim] = vertex{x: append([]float64(nil), trial...), f: fc}
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= dim; i++ {
					for j := range simplex[i].x {
						simplex[i].x[j] = simplex[0].x[j] + delta*(simplex[i].x[j]-simplex[0].x[j])
					}
					simplex[i].f = eval(simplex[i].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
	return Result{X: simplex[0].x, F: simplex[0].f, Iterations: iter, Evaluations: evals, Converged: false}
}

// LBFGSOptions tunes the limited-memory BFGS optimizer.
type LBFGSOptions struct {
	MaxIter int     // default 200
	Memory  int     // history pairs, default 8
	GradTol float64 // ∞-norm stop, default 1e-8
	FTol    float64 // relative decrease stop, default 1e-12
	// Resume continues from a captured state: the initial objective and
	// gradient evaluations are skipped (the state carries them), and the
	// curvature-pair history is restored so the Hessian model — and
	// therefore the step sequence — matches the uninterrupted run
	// exactly. MaxIter bounds the total iteration count across resumes.
	Resume *LBFGSState
	// Observer is called at the top of every iteration with a deep copy
	// of the current state. A non-nil return halts the loop with the
	// best iterate so far and Interrupted set.
	Observer func(*LBFGSState) error
}

// LBFGS minimizes f with the two-loop-recursion L-BFGS method and a
// backtracking Armijo line search. It is the inner optimizer used by the
// Adapt-VQE experiment (paper Figure 5).
func LBFGS(f Objective, grad Gradient, x0 []float64, o LBFGSOptions) Result {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Memory <= 0 {
		o.Memory = 8
	}
	if o.GradTol == 0 {
		o.GradTol = 1e-8
	}
	if o.FTol == 0 {
		o.FTol = 1e-12
	}
	if grad == nil {
		grad = FiniteDifference(f, 0)
	}
	dim := len(x0)
	x := append([]float64(nil), x0...)
	g := make([]float64, dim)
	evals := 0
	var fx float64
	var sHist, yHist [][]float64
	var rhoHist []float64
	iter := 0
	if o.Resume != nil {
		if len(o.Resume.X) != dim || len(o.Resume.G) != dim {
			panic(fmt.Errorf("%w: resume state dimension %d, want %d",
				core.ErrInvalidArgument, len(o.Resume.X), dim))
		}
		copy(x, o.Resume.X)
		copy(g, o.Resume.G)
		fx = o.Resume.F
		sHist = copyMat(o.Resume.SHist)
		yHist = copyMat(o.Resume.YHist)
		rhoHist = copyVec(o.Resume.RhoHist)
		iter = o.Resume.Iter
		evals = o.Resume.Evals
	} else {
		fx = f(x)
		evals++
		grad(x, g)
	}

	dir := make([]float64, dim)
	xNew := make([]float64, dim)
	gNew := make([]float64, dim)

	for ; iter < o.MaxIter; iter++ {
		if o.Observer != nil {
			st := &LBFGSState{X: x, G: g, F: fx, SHist: sHist, YHist: yHist, RhoHist: rhoHist, Iter: iter, Evals: evals}
			if err := o.Observer(st.clone()); err != nil {
				return Result{X: x, F: fx, Iterations: iter, Evaluations: evals, Interrupted: true}
			}
		}
		gInf := 0.0
		for _, gi := range g {
			gInf = math.Max(gInf, math.Abs(gi))
		}
		if gInf < o.GradTol {
			return Result{X: x, F: fx, Iterations: iter, Evaluations: evals, Converged: true}
		}
		// Two-loop recursion: dir = −H·g.
		copy(dir, g)
		alphas := make([]float64, len(sHist))
		for i := len(sHist) - 1; i >= 0; i-- {
			a := rhoHist[i] * dot(sHist[i], dir)
			alphas[i] = a
			axpy(-a, yHist[i], dir)
		}
		if len(sHist) > 0 {
			last := len(sHist) - 1
			scale := dot(sHist[last], yHist[last]) / dot(yHist[last], yHist[last])
			for i := range dir {
				dir[i] *= scale
			}
		}
		for i := 0; i < len(sHist); i++ {
			b := rhoHist[i] * dot(yHist[i], dir)
			axpy(alphas[i]-b, sHist[i], dir)
		}
		for i := range dir {
			dir[i] = -dir[i]
		}
		// Strong-Wolfe line search (Nocedal & Wright): guarantees positive
		// curvature pairs and real progress per iteration.
		slope := dot(g, dir)
		if slope >= 0 {
			// Not a descent direction (numerical breakdown): steepest descent.
			sHist, yHist, rhoHist = nil, nil, nil
			for i := range dir {
				dir[i] = -g[i]
			}
			slope = dot(g, dir)
			if slope >= 0 {
				return Result{X: x, F: fx, Iterations: iter, Evaluations: evals, Converged: true}
			}
		}
		fNew, accepted := wolfeSearch(f, grad, x, dir, fx, slope, xNew, gNew, &evals)
		if !accepted {
			// Retry once from steepest descent with fresh history.
			sHist, yHist, rhoHist = nil, nil, nil
			for i := range dir {
				dir[i] = -g[i]
			}
			slope = dot(g, dir)
			fNew, accepted = wolfeSearch(f, grad, x, dir, fx, slope, xNew, gNew, &evals)
			if !accepted {
				return Result{X: x, F: fx, Iterations: iter, Evaluations: evals, Converged: true}
			}
		}
		// Update history.
		s := make([]float64, dim)
		y := make([]float64, dim)
		for i := range s {
			s[i] = xNew[i] - x[i]
			y[i] = gNew[i] - g[i]
		}
		// Relative curvature condition: an absolute threshold would stop
		// accepting pairs once steps become small, freezing the Hessian
		// model and stalling progress.
		if sy := dot(s, y); sy > 1e-10*math.Sqrt(dot(s, s))*math.Sqrt(dot(y, y)) {
			sHist = append(sHist, s)
			yHist = append(yHist, y)
			rhoHist = append(rhoHist, 1/sy)
			if len(sHist) > o.Memory {
				sHist = sHist[1:]
				yHist = yHist[1:]
				rhoHist = rhoHist[1:]
			}
		}
		relDrop := math.Abs(fx-fNew) / (1 + math.Abs(fx))
		copy(x, xNew)
		copy(g, gNew)
		fx = fNew
		if relDrop < o.FTol {
			return Result{X: x, F: fx, Iterations: iter + 1, Evaluations: evals, Converged: true}
		}
	}
	return Result{X: x, F: fx, Iterations: iter, Evaluations: evals, Converged: false}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// wolfeSearch finds a step along dir satisfying the strong Wolfe
// conditions, writing the accepted point/gradient into xNew/gNew. Returns
// the objective value there and whether a step was accepted.
func wolfeSearch(f Objective, grad Gradient, x, dir []float64, fx, slope float64, xNew, gNew []float64, evals *int) (float64, bool) {
	const (
		c1      = 1e-4
		c2      = 0.9
		maxIter = 25
	)
	phi := func(a float64) (float64, float64) {
		for i := range xNew {
			xNew[i] = x[i] + a*dir[i]
		}
		fn := f(xNew)
		*evals++
		grad(xNew, gNew)
		return fn, dot(gNew, dir)
	}
	zoom := func(lo, hi, fLo float64) (float64, bool) {
		for z := 0; z < 30; z++ {
			a := 0.5 * (lo + hi)
			fa, da := phi(a)
			switch {
			case fa > fx+c1*a*slope || fa >= fLo:
				hi = a
			case math.Abs(da) <= -c2*slope:
				return fa, true
			case da*(hi-lo) >= 0:
				hi = lo
				lo = a
				fLo = fa
			default:
				lo = a
				fLo = fa
			}
			if math.Abs(hi-lo) < 1e-16*(1+math.Abs(lo)) {
				// Interval collapsed; accept if we made any progress.
				fa, _ := phi(lo)
				return fa, fa < fx
			}
		}
		fa, _ := phi(lo)
		return fa, fa < fx
	}

	aPrev, fPrev := 0.0, fx
	a := 1.0
	for i := 0; i < maxIter; i++ {
		fa, da := phi(a)
		if fa > fx+c1*a*slope || (i > 0 && fa >= fPrev) {
			return zoom(aPrev, a, fPrev)
		}
		if math.Abs(da) <= -c2*slope {
			return fa, true
		}
		if da >= 0 {
			return zoom(a, aPrev, fa)
		}
		aPrev, fPrev = a, fa
		a *= 2
		if a > 1e6 {
			return fa, true
		}
	}
	return 0, false
}
