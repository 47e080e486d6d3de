// Package simuser reproduces the paper's user study (§6.3) with simulated
// users, since the original 18 graduate students are not reproducible. The
// study compared two directed tasks on the complete Magnet system versus a
// Flamenco-like baseline, reporting mean recipes found:
//
//	task 1 (walnut recipe → related nut-free recipes): 2.70 vs 1.71
//	task 2 (Mexican themed menu):                      5.80 vs 4.87
//
// The simulated users implement the behaviours the paper observed:
//
//   - capture errors: "users performed an incorrect but more easily
//     available sequence", e.g. stacking the walnut ingredient as a positive
//     constraint and then excluding nuts, "producing the empty result set";
//   - recovery through the contrary advisor on the complete system: "even
//     when not sure how to proceed ... the contrary advisor would suggest
//     negation to get them started";
//   - similarity-first strategies on the complete system: "another user
//     searched for her favorite dish first, asked the system to give
//     similar recipes and then refined by Mexican".
//
// Every user action drives the real system through core.Session — panes are
// actually built, suggestions actually applied — so the measured difference
// comes from the advisor sets, not from hard-coded outcomes.
package simuser

import (
	"math/rand"

	"magnet/internal/analysts"
	"magnet/internal/core"
	"magnet/internal/datasets/recipes"
)

// SystemKind identifies which advisor configuration a run used.
type SystemKind string

const (
	// Complete is the full Magnet system.
	Complete SystemKind = "complete"
	// Baseline is the Flamenco-like control.
	Baseline SystemKind = "baseline"
)

// Config controls a study run.
type Config struct {
	// Users is the number of simulated participants; 0 means the paper's 18.
	Users int
	// Seed defaults to 1.
	Seed int64
	// Recipes is the corpus size; 0 means the paper's 6,444.
	Recipes int
}

// TaskResult is one (task, system) cell of the study table.
type TaskResult struct {
	Task    string
	System  SystemKind
	PerUser []int
	Mean    float64
}

// StudyResult is the full 2×2 study outcome.
type StudyResult struct {
	Task1Complete TaskResult
	Task1Baseline TaskResult
	Task2Complete TaskResult
	Task2Baseline TaskResult
}

// Rows returns the four cells in presentation order.
func (r StudyResult) Rows() []TaskResult {
	return []TaskResult{r.Task1Complete, r.Task1Baseline, r.Task2Complete, r.Task2Baseline}
}

// user is one simulated participant's skill profile.
type user struct {
	rng *rand.Rand
	// negationSkill is the probability of getting manual negation right
	// (the study: "most users on both systems had a hard time getting
	// negation right").
	negationSkill float64
	// patience is how many candidate recipes the user examines per
	// collection before moving on.
	patience int
	// similarityFirst marks users who start from a favourite item and ask
	// for similar ones (only possible on the complete system).
	similarityFirst bool
}

func newUser(rng *rand.Rand) *user {
	return &user{
		rng:             rng,
		negationSkill:   0.3 + 0.3*rng.Float64(),
		patience:        3 + rng.Intn(4),
		similarityFirst: rng.Float64() < 0.5,
	}
}

// Study is a prepared study environment: the corpus and both systems,
// ready to run individual simulated participants (the benchmarks time
// single task executions through this).
type Study struct {
	env      *studyEnv
	complete *core.Magnet
	baseline *core.Magnet
	seed     int64
}

// Prepare builds the corpus and both systems.
func Prepare(cfg Config) *Study {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	n := cfg.Recipes
	if n <= 0 {
		n = 6444
	}
	g := recipes.Build(recipes.Config{Recipes: n, Seed: seed})
	complete := core.Open(g, core.Options{})
	env := &studyEnv{graph: complete.Graph()}
	env.prepare()
	return &Study{
		env:      env,
		complete: complete,
		baseline: core.Open(g, core.Options{Analysts: analysts.BaselineSet}),
		seed:     seed,
	}
}

func (st *Study) system(k SystemKind) (*core.Magnet, bool) {
	if k == Complete {
		return st.complete, true
	}
	return st.baseline, false
}

// RunTask1 executes the walnut task for one simulated user on the given
// system, returning the recipes found.
func (st *Study) RunTask1(k SystemKind, userSeed int64) int {
	m, complete := st.system(k)
	u := newUser(rand.New(rand.NewSource(userSeed)))
	return st.env.task1(u, m.NewSession(), complete)
}

// RunTask2 executes the Mexican-menu task for one simulated user.
func (st *Study) RunTask2(k SystemKind, userSeed int64) int {
	m, complete := st.system(k)
	u := newUser(rand.New(rand.NewSource(userSeed)))
	return st.env.task2(u, m.NewSession(), complete)
}

// Run executes the study: one corpus, two systems, every user doing both
// tasks on both (the original was between-subjects; within-subjects with
// per-user seeds keeps the comparison paired and the variance low).
func Run(cfg Config) StudyResult {
	users := cfg.Users
	if users <= 0 {
		users = 18
	}
	st := Prepare(cfg)

	res := StudyResult{
		Task1Complete: TaskResult{Task: "task1", System: Complete},
		Task1Baseline: TaskResult{Task: "task1", System: Baseline},
		Task2Complete: TaskResult{Task: "task2", System: Complete},
		Task2Baseline: TaskResult{Task: "task2", System: Baseline},
	}
	for i := 0; i < users; i++ {
		// Same skills per user across systems: paired comparison.
		s1 := st.seed + int64(i)*7919
		res.Task1Complete.PerUser = append(res.Task1Complete.PerUser, st.RunTask1(Complete, s1))
		res.Task1Baseline.PerUser = append(res.Task1Baseline.PerUser, st.RunTask1(Baseline, s1))

		s2 := st.seed + 1_000_003 + int64(i)*104729
		res.Task2Complete.PerUser = append(res.Task2Complete.PerUser, st.RunTask2(Complete, s2))
		res.Task2Baseline.PerUser = append(res.Task2Baseline.PerUser, st.RunTask2(Baseline, s2))
	}
	finishMean(&res.Task1Complete)
	finishMean(&res.Task1Baseline)
	finishMean(&res.Task2Complete)
	finishMean(&res.Task2Baseline)
	return res
}

func finishMean(tr *TaskResult) {
	if len(tr.PerUser) == 0 {
		return
	}
	sum := 0
	for _, v := range tr.PerUser {
		sum += v
	}
	tr.Mean = float64(sum) / float64(len(tr.PerUser))
}
