package opt

import (
	"math"
	"testing"
)

// Test objectives.

func quadratic(x []float64) float64 {
	// Minimum 1.5 at (1, -2, 3).
	c := []float64{1, -2, 3}
	s := 1.5
	for i := range x {
		s += (x[i] - c[i]) * (x[i] - c[i]) * float64(i+1)
	}
	return s
}

func rosenbrock(x []float64) float64 {
	s := 0.0
	for i := 0; i+1 < len(x); i++ {
		s += 100*math.Pow(x[i+1]-x[i]*x[i], 2) + math.Pow(1-x[i], 2)
	}
	return s
}

func assertNear(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: %v, want %v (±%v)", msg, got, want, tol)
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	res := NelderMead(quadratic, []float64{0, 0, 0}, NelderMeadOptions{})
	if !res.Converged {
		t.Error("did not converge")
	}
	assertNear(t, res.F, 1.5, 1e-6, "NM quadratic minimum")
	assertNear(t, res.X[0], 1, 1e-3, "x0")
	assertNear(t, res.X[1], -2, 1e-3, "x1")
}

func TestNelderMeadRosenbrock2D(t *testing.T) {
	res := NelderMead(rosenbrock, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 5000})
	assertNear(t, res.F, 0, 1e-6, "NM rosenbrock")
}

func TestNelderMeadZeroDim(t *testing.T) {
	res := NelderMead(func(x []float64) float64 { return 7 }, nil, NelderMeadOptions{})
	if res.F != 7 || !res.Converged {
		t.Error("zero-dim case")
	}
}

func TestNelderMeadEvaluationsCounted(t *testing.T) {
	res := NelderMead(quadratic, []float64{5, 5, 5}, NelderMeadOptions{})
	if res.Evaluations < 4 {
		t.Error("evaluation count implausible")
	}
}

func TestLBFGSQuadratic(t *testing.T) {
	res := LBFGS(quadratic, nil, []float64{10, -10, 10}, LBFGSOptions{})
	if !res.Converged {
		t.Error("did not converge")
	}
	assertNear(t, res.F, 1.5, 1e-8, "LBFGS quadratic")
}

func TestLBFGSRosenbrock(t *testing.T) {
	res := LBFGS(rosenbrock, nil, []float64{-1.2, 1}, LBFGSOptions{MaxIter: 500})
	assertNear(t, res.F, 0, 1e-8, "LBFGS rosenbrock")
	assertNear(t, res.X[0], 1, 1e-4, "LBFGS rosenbrock x0")
}

func TestLBFGSHighDimensional(t *testing.T) {
	x0 := make([]float64, 20)
	res := LBFGS(rosenbrock, nil, x0, LBFGSOptions{MaxIter: 2000})
	assertNear(t, res.F, 0, 1e-6, "LBFGS 20-dim rosenbrock")
}

func TestLBFGSWithAnalyticGradient(t *testing.T) {
	grad := func(x, g []float64) {
		c := []float64{1, -2, 3}
		for i := range x {
			g[i] = 2 * float64(i+1) * (x[i] - c[i])
		}
	}
	res := LBFGS(quadratic, grad, []float64{0, 0, 0}, LBFGSOptions{})
	assertNear(t, res.F, 1.5, 1e-10, "LBFGS analytic")
	if res.Iterations > 30 {
		t.Errorf("too many iterations for a quadratic: %d", res.Iterations)
	}
}

func TestFiniteDifferenceAccuracy(t *testing.T) {
	g := make([]float64, 2)
	FiniteDifference(rosenbrock, 0)([]float64{0.5, 0.5}, g)
	// Analytic: df/dx0 = -400·x0·(x1−x0²) − 2(1−x0); df/dx1 = 200(x1−x0²).
	want0 := -400*0.5*(0.5-0.25) - 2*(1-0.5)
	want1 := 200 * (0.5 - 0.25)
	assertNear(t, g[0], want0, 1e-4, "fd g0")
	assertNear(t, g[1], want1, 1e-4, "fd g1")
}

func TestOptimizersOnPeriodicLandscape(t *testing.T) {
	// VQE-like objective: sum of cosines with a unique minimum in the
	// basin of 0. f = -cos(x0)·cos(x1/2), minimum -1 at (0,0).
	f := func(x []float64) float64 {
		return -math.Cos(x[0]) * math.Cos(x[1]/2)
	}
	for name, run := range map[string]func() Result{
		"nm":    func() Result { return NelderMead(f, []float64{0.4, -0.6}, NelderMeadOptions{}) },
		"lbfgs": func() Result { return LBFGS(f, nil, []float64{0.4, -0.6}, LBFGSOptions{}) },
	} {
		res := run()
		if math.Abs(res.F-(-1)) > 1e-4 {
			t.Errorf("%s: f=%v, want -1", name, res.F)
		}
	}
}
