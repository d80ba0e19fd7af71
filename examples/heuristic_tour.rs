//! A tour of the paper's §4: parse the figures' code in the restricted-C
//! DSL, print update matrices, and watch the two-pass heuristic choose —
//! per loop, then per dereference site.
//!
//! Run with: `cargo run --example heuristic_tour`

use olden_core::analysis::mech_table;
use olden_core::prelude::*;

fn main() {
    // Figure 3: a loop with induction variables.
    let fig3 = r#"
        struct node { node *left @ 90; node *right @ 70; };
        void f(node *s, node *t, node *u) {
            while (s) {
                s = s->left;
                t = t->right->left;
                u = s->right;
            }
        }
    "#;
    let prog = parse(fig3).unwrap();
    let table = mech_table(&prog);
    let sel = &table.selection;
    println!("=== Figure 3 ===");
    let lp = &sel.for_func("f")[0];
    let m = sel.matrix(lp.cl.id);
    println!(
        "update matrix: (s,s)={:?} (t,t)={:?} (u,s)={:?} (u,u)={:?}",
        m.get("s", "s"),
        m.get("t", "t"),
        m.get("u", "s"),
        m.get("u", "u")
    );
    print!("{}", table.render());

    // Figure 4: TreeAdd's recursion combines 90% and 70% into 97%.
    let fig4 = r#"
        struct tree { tree *left @ 90; tree *right @ 70; int val; };
        int TreeAdd(tree *t) {
            if (t == null) { return 0; }
            else { return TreeAdd(t->left) + TreeAdd(t->right) + t->val; }
        }
    "#;
    println!("=== Figure 4 ===");
    print!("{}", mech_table(&parse(fig4).unwrap()).render());

    // Figure 5: the bottleneck pass.
    let fig5 = r#"
        struct list { list *next; body *item; };
        struct body { int x; };
        struct tree { tree *left; tree *right; list *items; };
        void Traverse(tree *t) {
            if (t == null) { return; }
            else { Traverse(t->left); Traverse(t->right); }
        }
        void Walk(list *l) { while (l) { visit(l); l = l->next; } }
        void WalkAndTraverse(list *l, tree *t) {
            while (l) { futurecall Traverse(t); l = l->next; }
        }
        void TraverseAndWalk(tree *t) {
            if (t == null) { return; }
            else {
                futurecall TraverseAndWalk(t->left);
                futurecall TraverseAndWalk(t->right);
                Walk(t->items);
            }
        }
    "#;
    println!("=== Figure 5 ===");
    print!("{}", mech_table(&parse(fig5).unwrap()).render());
    println!("Traverse is demoted to caching: every parallel iteration of");
    println!("WalkAndTraverse passes the *same* tree root, which would");
    println!("serialize all threads on one processor (the paper's bottleneck).");
}
