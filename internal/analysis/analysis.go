// Package analysis is lbmvet's stdlib-only static-analysis framework: a
// package loader built on go/parser + go/types (no golang.org/x/tools
// dependency — the repo stays offline-buildable), a finding/diagnostic
// model with file:line positions and //lint:ignore suppressions, and the
// five domain analyzers that enforce SunwayLB's correctness contracts:
//
//	ldmbudget  — CPE kernels must fit the chip's LDM byte budget
//	spanpair   — trace spans must pair Begin/End; nil-safe types must guard
//	hotalloc   — //lbm:hot functions must not allocate, box, or call fmt
//	detfloat   — physics paths must stay bit-deterministic
//	memtraffic — //lbm:hot kernels must meet their per-cell traffic budget
//
// The contracts come from the paper's hardware model (§III-B LDM
// capacities and ~380 B/cell traffic budget, §IV-C kernel structure),
// from the zero-cost tracing-off contract of internal/trace, and from the
// checkpoint/replay determinism requirement (DESIGN.md §7). See DESIGN.md
// "Static-analysis contracts" for the rule-to-contract mapping and the
// ledger of what each rule caught.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named rule over a type-checked package.
type Analyzer struct {
	// Name is the rule identifier used in findings and suppressions.
	Name string
	// Doc is a one-line description shown by lbmvet -help.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(p *Pass)
}

// Pass carries one (analyzer, package) execution.
type Pass struct {
	An   *Analyzer
	Pkg  *Package
	sink *[]Finding
}

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Info returns the package's type information.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Finding{
		Rule:    p.An.Name,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Finding is one diagnostic: a rule, a position and a message.
type Finding struct {
	Rule    string         `json:"rule"`
	Pos     token.Position `json:"-"`
	Message string         `json:"message"`
	// File/Line/Col mirror Pos for JSON output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// String formats the finding in the conventional file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Rule)
}

// Run executes the analyzers over the packages and returns the surviving
// findings (suppressed ones removed), sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		var pkgFindings []Finding
		for _, an := range analyzers {
			pass := &Pass{An: an, Pkg: pkg, sink: &pkgFindings}
			an.Run(pass)
		}
		// Malformed suppression comments are findings themselves.
		pkgFindings = append(pkgFindings, sup.malformed...)
		for _, f := range pkgFindings {
			if sup.suppressed(f) {
				continue
			}
			f.File = f.Pos.Filename
			f.Line = f.Pos.Line
			f.Col = f.Pos.Column
			all = append(all, f)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return all
}

// suppressions indexes //lint:ignore comments of one package.
//
// Grammar:  //lint:ignore <rule|*> <reason>
//
// A suppression covers findings of the named rule (or any rule for *) on
// the comment's own line and on the line immediately after it, so it can
// trail the offending statement or sit on its own line directly above.
// When the line after the comment starts a simple statement that spans
// several lines (a wrapped call or assignment), the suppression covers
// the statement's whole line range; compound statements (if/for/switch)
// and statements containing function literals keep the one-line scope,
// so suppressing a finding in one branch never silences the others.
type suppressions struct {
	// byFile maps filename → line → rules silenced at that line.
	byFile    map[string]map[int][]string
	malformed []Finding
}

func (s *suppressions) suppressed(f Finding) bool {
	lines := s.byFile[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, rule := range lines[f.Pos.Line] {
		if rule == "*" || rule == f.Rule {
			return true
		}
	}
	return false
}

func collectSuppressions(pkg *Package) *suppressions {
	s := &suppressions{byFile: make(map[string]map[int][]string)}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Finding{
						Rule:    "suppress",
						Pos:     pos,
						Message: "malformed //lint:ignore: need a rule name and a reason",
					})
					continue
				}
				lines := s.byFile[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					s.byFile[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], fields[0])
				lines[pos.Line+1] = append(lines[pos.Line+1], fields[0])
			}
		}
	}
	s.extendMultiLine(pkg)
	return s
}

// extendMultiLine widens suppressions over multi-line simple statements:
// a //lint:ignore whose next line starts a wrapped call or assignment
// covers every line of that statement. Compound statements and
// statements containing function literals are excluded so suppressing
// one branch of an if/switch (or one finding inside a closure) never
// silences findings on the other lines.
func (s *suppressions) extendMultiLine(pkg *Package) {
	for _, file := range pkg.Files {
		filename := pkg.Fset.Position(file.Pos()).Filename
		lines := s.byFile[filename]
		if lines == nil {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(ast.Stmt)
			if !ok {
				return true
			}
			switch st.(type) {
			case *ast.AssignStmt, *ast.ExprStmt, *ast.DeclStmt, *ast.ReturnStmt, *ast.SendStmt:
			default:
				return true
			}
			start := pkg.Fset.Position(st.Pos()).Line
			end := pkg.Fset.Position(st.End()).Line
			if end == start || len(lines[start]) == 0 {
				return true
			}
			if hasFuncLit(st) {
				return true
			}
			rules := append([]string(nil), lines[start]...)
			for l := start + 1; l <= end; l++ {
				lines[l] = append(lines[l], rules...)
			}
			return true
		})
	}
}

func hasFuncLit(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			found = true
		}
		return !found
	})
	return found
}

// isPkgPath reports whether obj belongs to the package with the given
// import path.
func isPkgPath(obj types.Object, path string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// namedType unwraps pointers and aliases and returns the *types.Named
// beneath, or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamed reports whether t (possibly behind pointers) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && isPkgPath(obj, pkgPath)
}

// exprString renders a short canonical form of an expression for use as a
// matching key (receiver/track identity in spanpair).
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.BasicLit:
		return v.Value
	case *ast.CallExpr:
		return exprString(v.Fun) + "()"
	case *ast.ParenExpr:
		return exprString(v.X)
	case *ast.IndexExpr:
		return exprString(v.X) + "[" + exprString(v.Index) + "]"
	case *ast.UnaryExpr:
		return v.Op.String() + exprString(v.X)
	default:
		return fmt.Sprintf("%T", e)
	}
}
