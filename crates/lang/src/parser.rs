//! Recursive-descent parser for ParC (both dialects).
//!
//! The parser accepts the syntactic superset of CudaLite and OmpLite; dialect
//! legality (e.g. a kernel launch appearing in an OpenMP program) is checked
//! by `lassi-sema` so that such mistakes surface as *compile errors* that the
//! LASSI self-correction loop can feed back to the LLM.

use crate::ast::*;
use crate::diag::Diagnostic;
use crate::lexer::Lexer;
use crate::token::{Token, TokenKind};

/// Parse a complete translation unit.
///
/// Every error carries a stable machine code: lexer errors keep their
/// `lex/*` codes, and any parser emission that was not classified at its
/// site defaults to `parse/syntax-error`.
pub fn parse(src: &str, dialect: Dialect) -> Result<Program, Diagnostic> {
    let tokens = Lexer::tokenize(src).map_err(|d| d.with_default_code("lex/error"))?;
    let mut parser = Parser::new(tokens, dialect);
    parser
        .parse_program()
        .map_err(|d| d.with_default_code("parse/syntax-error"))
}

/// The ParC parser. Construct via [`Parser::new`] or use the [`parse`]
/// convenience function.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    dialect: Dialect,
}

const TYPE_KEYWORDS: &[&str] = &[
    "void", "bool", "int", "long", "float", "double", "dim3", "size_t", "unsigned",
];

impl Parser {
    /// Create a parser over pre-lexed tokens.
    pub fn new(tokens: Vec<Token>, dialect: Dialect) -> Self {
        Parser {
            tokens,
            pos: 0,
            dialect,
        }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.peek().line
    }

    /// Consume the current token. The parser never backtracks, so the token
    /// is moved out of the stream (its slot keeps only the line); the
    /// trailing `Eof` stays in place and is returned by every later call.
    fn bump(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        if self.pos < last {
            let line = self.tokens[self.pos].line;
            let t = std::mem::replace(&mut self.tokens[self.pos], Token::new(TokenKind::Eof, line));
            self.pos += 1;
            t
        } else {
            self.tokens[last].clone()
        }
    }

    /// Consume the current token, which the caller has peeked to be an
    /// identifier, and return its name.
    fn bump_ident(&mut self) -> String {
        match self.bump().kind {
            TokenKind::Ident(s) => s,
            other => unreachable!("bump_ident on '{other}'"),
        }
    }

    fn at_ident(&self, word: &str) -> bool {
        matches!(self.peek_kind(), TokenKind::Ident(s) if s == word)
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if self.at_ident(word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<Token, Diagnostic> {
        if self.peek_kind() == kind {
            Ok(self.bump())
        } else {
            Err(Diagnostic::error(
                self.line(),
                format!("expected {what} ('{kind}'), found '{}'", self.peek_kind()),
            )
            .with_code("parse/expected-token"))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, Diagnostic> {
        match self.peek_kind() {
            TokenKind::Ident(_) => Ok(self.bump_ident()),
            other => Err(Diagnostic::error(
                self.line(),
                format!("expected {what}, found '{other}'"),
            )
            .with_code("parse/expected-ident")),
        }
    }

    fn at_type_keyword(&self) -> bool {
        match self.peek_kind() {
            TokenKind::Ident(s) => TYPE_KEYWORDS.contains(&s.as_str()) || s == "const",
            _ => false,
        }
    }

    // ----------------------------------------------------------------- types

    fn parse_base_type(&mut self) -> Result<Type, Diagnostic> {
        let line = self.line();
        let name = self.expect_ident("a type name")?;
        let base = match name.as_str() {
            "void" => Type::Void,
            "bool" => Type::Bool,
            "int" => Type::Int,
            "long" | "size_t" => {
                // accept `long long`
                self.eat_ident("long");
                Type::Long
            }
            "unsigned" => {
                // accept `unsigned int` / `unsigned long`
                if self.at_ident("long") {
                    self.bump();
                    Type::Long
                } else {
                    self.eat_ident("int");
                    Type::Int
                }
            }
            "float" => Type::Float,
            "double" => Type::Double,
            "dim3" => Type::Dim3,
            other => {
                return Err(Diagnostic::error(
                    line,
                    format!("unknown type name '{other}'"),
                ));
            }
        };
        Ok(base)
    }

    fn parse_type(&mut self) -> Result<Type, Diagnostic> {
        let mut ty = self.parse_base_type()?;
        while self.eat(&TokenKind::Star) {
            ty = ty.ptr();
        }
        Ok(ty)
    }

    // ------------------------------------------------------------- top level

    /// Parse the whole program.
    pub fn parse_program(&mut self) -> Result<Program, Diagnostic> {
        let mut program = Program::new(self.dialect);
        while self.peek_kind() != &TokenKind::Eof {
            let func = self.parse_function()?;
            program.items.push(Item::Function(func));
        }
        if program.items.is_empty() {
            return Err(Diagnostic::error(
                0,
                "empty translation unit: no functions defined",
            ));
        }
        Ok(program)
    }

    fn parse_function(&mut self) -> Result<Function, Diagnostic> {
        let line = self.line();
        let mut qualifier = FnQualifier::Host;
        loop {
            if self.eat_ident("__global__") {
                qualifier = FnQualifier::Kernel;
            } else if self.eat_ident("__device__") {
                qualifier = FnQualifier::Device;
            } else if self.eat_ident("static") || self.eat_ident("inline") {
                // accepted and ignored
            } else {
                break;
            }
        }
        let ret = self.parse_type()?;
        let name = self.expect_ident("a function name")?;
        self.expect(&TokenKind::LParen, "'(' after function name")?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let is_const = self.eat_ident("const");
                let ty = self.parse_type()?;
                let pname = self.expect_ident("a parameter name")?;
                params.push(Param {
                    name: pname,
                    ty,
                    is_const,
                });
                if self.eat(&TokenKind::Comma) {
                    continue;
                }
                self.expect(&TokenKind::RParen, "')' after parameters")?;
                break;
            }
        }
        let body = self.parse_block()?;
        Ok(Function {
            name,
            qualifier,
            ret,
            params,
            body,
            line,
        })
    }

    // ------------------------------------------------------------ statements

    fn parse_block(&mut self) -> Result<Block, Diagnostic> {
        self.expect(&TokenKind::LBrace, "'{' to open a block")?;
        let mut stmts = Vec::new();
        while self.peek_kind() != &TokenKind::RBrace {
            if self.peek_kind() == &TokenKind::Eof {
                return Err(Diagnostic::error(
                    self.line(),
                    "unexpected end of file inside block",
                ));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect(&TokenKind::RBrace, "'}' to close a block")?;
        Ok(Block { stmts })
    }

    /// Parse a single statement (the body of a pragma, a loop, etc.).
    pub fn parse_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let line = self.line();
        match self.peek_kind() {
            TokenKind::PragmaLine(_) => {
                let TokenKind::PragmaLine(text) = self.bump().kind else {
                    unreachable!("peeked a pragma line")
                };
                let directive = parse_pragma(&text, line)?;
                let body = if directive.kind.takes_body() {
                    Some(Box::new(self.parse_stmt()?))
                } else {
                    None
                };
                Ok(Stmt::new(
                    StmtKind::Pragma(PragmaStmt { directive, body }),
                    line,
                ))
            }
            TokenKind::LBrace => {
                let block = self.parse_block()?;
                Ok(Stmt::new(StmtKind::Block(block), line))
            }
            TokenKind::Ident(word) => match word.as_str() {
                "if" => self.parse_if(),
                "for" => self.parse_for(),
                "while" => self.parse_while(),
                "return" => {
                    self.bump();
                    let value = if self.peek_kind() == &TokenKind::Semi {
                        None
                    } else {
                        Some(self.parse_expr()?)
                    };
                    self.expect(&TokenKind::Semi, "';' after return")?;
                    Ok(Stmt::new(StmtKind::Return(value), line))
                }
                "break" => {
                    self.bump();
                    self.expect(&TokenKind::Semi, "';' after break")?;
                    Ok(Stmt::new(StmtKind::Break, line))
                }
                "continue" => {
                    self.bump();
                    self.expect(&TokenKind::Semi, "';' after continue")?;
                    Ok(Stmt::new(StmtKind::Continue, line))
                }
                _ => {
                    let stmt = self.parse_simple_stmt()?;
                    self.expect(&TokenKind::Semi, "';' after statement")?;
                    Ok(stmt)
                }
            },
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let stmt = self.parse_simple_stmt()?;
                self.expect(&TokenKind::Semi, "';' after statement")?;
                Ok(stmt)
            }
            other => Err(Diagnostic::error(
                line,
                format!("unexpected token '{other}' at start of statement"),
            )),
        }
    }

    fn parse_if(&mut self) -> Result<Stmt, Diagnostic> {
        let line = self.line();
        self.bump(); // if
        self.expect(&TokenKind::LParen, "'(' after if")?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen, "')' after if condition")?;
        let then_branch = self.parse_stmt_as_block()?;
        let else_branch = if self.at_ident("else") {
            self.bump();
            Some(self.parse_stmt_as_block()?)
        } else {
            None
        };
        Ok(Stmt::new(
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
            line,
        ))
    }

    fn parse_stmt_as_block(&mut self) -> Result<Block, Diagnostic> {
        if self.peek_kind() == &TokenKind::LBrace {
            self.parse_block()
        } else {
            let s = self.parse_stmt()?;
            Ok(Block::from_stmts(vec![s]))
        }
    }

    fn parse_for(&mut self) -> Result<Stmt, Diagnostic> {
        let line = self.line();
        self.bump(); // for
        self.expect(&TokenKind::LParen, "'(' after for")?;
        let init = if self.peek_kind() == &TokenKind::Semi {
            None
        } else {
            Some(Box::new(self.parse_simple_stmt()?))
        };
        self.expect(&TokenKind::Semi, "';' after for-init")?;
        let cond = if self.peek_kind() == &TokenKind::Semi {
            None
        } else {
            Some(self.parse_expr()?)
        };
        self.expect(&TokenKind::Semi, "';' after for-condition")?;
        let step = if self.peek_kind() == &TokenKind::RParen {
            None
        } else {
            Some(Box::new(self.parse_simple_stmt()?))
        };
        self.expect(&TokenKind::RParen, "')' after for clauses")?;
        let body = self.parse_stmt_as_block()?;
        Ok(Stmt::new(
            StmtKind::For(ForStmt {
                init,
                cond,
                step,
                body,
            }),
            line,
        ))
    }

    fn parse_while(&mut self) -> Result<Stmt, Diagnostic> {
        let line = self.line();
        self.bump(); // while
        self.expect(&TokenKind::LParen, "'(' after while")?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::RParen, "')' after while condition")?;
        let body = self.parse_stmt_as_block()?;
        Ok(Stmt::new(StmtKind::While { cond, body }, line))
    }

    /// Parse a declaration, assignment, increment, kernel launch or call,
    /// without consuming the trailing ';'. Shared by statements and for-clauses.
    fn parse_simple_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let line = self.line();

        // Prefix increment/decrement.
        if matches!(
            self.peek_kind(),
            TokenKind::PlusPlus | TokenKind::MinusMinus
        ) {
            let op = if self.bump().kind == TokenKind::PlusPlus {
                AssignOp::AddAssign
            } else {
                AssignOp::SubAssign
            };
            let target = self.parse_postfix_expr()?;
            return Ok(Stmt::new(
                StmtKind::Assign {
                    target,
                    op,
                    value: Expr::int(1),
                },
                line,
            ));
        }

        // __shared__ declarations (device code).
        if self.at_ident("__shared__") {
            self.bump();
            let mut decl = self.parse_var_decl()?;
            decl.is_shared = true;
            return Ok(Stmt::new(StmtKind::VarDecl(decl), line));
        }

        // Declarations start with a type keyword or `const`.
        if self.at_type_keyword() {
            let decl = self.parse_var_decl()?;
            return Ok(Stmt::new(StmtKind::VarDecl(decl), line));
        }

        // Kernel launch: ident <<< ... >>> ( ... )
        if matches!(self.peek_kind(), TokenKind::Ident(_))
            && self.peek_ahead(1) == &TokenKind::TripleLt
        {
            let kernel = self.expect_ident("kernel name")?;
            self.expect(&TokenKind::TripleLt, "'<<<' in kernel launch")?;
            let grid = self.parse_expr()?;
            self.expect(&TokenKind::Comma, "',' between grid and block dims")?;
            let block = self.parse_expr()?;
            self.expect(&TokenKind::TripleGt, "'>>>' in kernel launch")?;
            self.expect(&TokenKind::LParen, "'(' before kernel arguments")?;
            let mut args = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if self.eat(&TokenKind::Comma) {
                        continue;
                    }
                    self.expect(&TokenKind::RParen, "')' after kernel arguments")?;
                    break;
                }
            }
            return Ok(Stmt::new(
                StmtKind::KernelLaunch(KernelLaunch {
                    kernel,
                    grid,
                    block,
                    args,
                }),
                line,
            ));
        }

        // Otherwise: expression, possibly followed by an assignment operator
        // or a postfix increment.
        let expr = self.parse_expr()?;
        let op = match self.peek_kind() {
            TokenKind::Assign => Some(AssignOp::Assign),
            TokenKind::PlusAssign => Some(AssignOp::AddAssign),
            TokenKind::MinusAssign => Some(AssignOp::SubAssign),
            TokenKind::StarAssign => Some(AssignOp::MulAssign),
            TokenKind::SlashAssign => Some(AssignOp::DivAssign),
            TokenKind::PlusPlus => {
                self.bump();
                return Ok(Stmt::new(
                    StmtKind::Assign {
                        target: expr,
                        op: AssignOp::AddAssign,
                        value: Expr::int(1),
                    },
                    line,
                ));
            }
            TokenKind::MinusMinus => {
                self.bump();
                return Ok(Stmt::new(
                    StmtKind::Assign {
                        target: expr,
                        op: AssignOp::SubAssign,
                        value: Expr::int(1),
                    },
                    line,
                ));
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let value = self.parse_expr()?;
            Ok(Stmt::new(
                StmtKind::Assign {
                    target: expr,
                    op,
                    value,
                },
                line,
            ))
        } else {
            Ok(Stmt::new(StmtKind::Expr(expr), line))
        }
    }

    fn parse_var_decl(&mut self) -> Result<VarDecl, Diagnostic> {
        let is_const = self.eat_ident("const");
        let ty = self.parse_type()?;
        let name = self.expect_ident("a variable name")?;

        // dim3 constructor form: dim3 block(x, y, z);
        if ty == Type::Dim3 && self.peek_kind() == &TokenKind::LParen {
            self.bump();
            let mut args = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if self.eat(&TokenKind::Comma) {
                        continue;
                    }
                    self.expect(&TokenKind::RParen, "')' after dim3 arguments")?;
                    break;
                }
            }
            return Ok(VarDecl {
                name,
                ty,
                init: Some(Expr::call("dim3", args)),
                array_len: None,
                is_const,
                is_shared: false,
            });
        }

        // Array declaration: T name[len]
        let array_len = if self.eat(&TokenKind::LBracket) {
            let len = self.parse_expr()?;
            self.expect(&TokenKind::RBracket, "']' after array length")?;
            Some(len)
        } else {
            None
        };

        let init = if self.eat(&TokenKind::Assign) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(VarDecl {
            name,
            ty,
            init,
            array_len,
            is_const,
            is_shared: false,
        })
    }

    // ----------------------------------------------------------- expressions

    /// Parse an expression.
    pub fn parse_expr(&mut self) -> Result<Expr, Diagnostic> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Result<Expr, Diagnostic> {
        let cond = self.parse_binary(0)?;
        if self.eat(&TokenKind::Question) {
            let then_expr = self.parse_expr()?;
            self.expect(&TokenKind::Colon, "':' in ternary expression")?;
            let else_expr = self.parse_expr()?;
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_expr: Box::new(then_expr),
                else_expr: Box::new(else_expr),
            })
        } else {
            Ok(cond)
        }
    }

    fn binop_for(&self, kind: &TokenKind) -> Option<(BinOp, u8)> {
        // Higher binding power binds tighter.
        Some(match kind {
            TokenKind::OrOr => (BinOp::Or, 1),
            TokenKind::AndAnd => (BinOp::And, 2),
            TokenKind::Pipe => (BinOp::BitOr, 3),
            TokenKind::Caret => (BinOp::BitXor, 4),
            TokenKind::Amp => (BinOp::BitAnd, 5),
            TokenKind::EqEq => (BinOp::Eq, 6),
            TokenKind::NotEq => (BinOp::Ne, 6),
            TokenKind::Lt => (BinOp::Lt, 7),
            TokenKind::Gt => (BinOp::Gt, 7),
            TokenKind::Le => (BinOp::Le, 7),
            TokenKind::Ge => (BinOp::Ge, 7),
            TokenKind::Shl => (BinOp::Shl, 8),
            TokenKind::Shr => (BinOp::Shr, 8),
            TokenKind::Plus => (BinOp::Add, 9),
            TokenKind::Minus => (BinOp::Sub, 9),
            TokenKind::Star => (BinOp::Mul, 10),
            TokenKind::Slash => (BinOp::Div, 10),
            TokenKind::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_bp: u8) -> Result<Expr, Diagnostic> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, bp)) = self.binop_for(self.peek_kind()) {
            if bp < min_bp {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(bp + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, Diagnostic> {
        match self.peek_kind() {
            TokenKind::Minus => {
                self.bump();
                let operand = self.parse_unary()?;
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    operand: Box::new(operand),
                })
            }
            TokenKind::Not => {
                self.bump();
                let operand = self.parse_unary()?;
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    operand: Box::new(operand),
                })
            }
            TokenKind::Amp => {
                self.bump();
                let operand = self.parse_unary()?;
                Ok(Expr::Unary {
                    op: UnOp::AddrOf,
                    operand: Box::new(operand),
                })
            }
            TokenKind::Star => {
                self.bump();
                let operand = self.parse_unary()?;
                Ok(Expr::Unary {
                    op: UnOp::Deref,
                    operand: Box::new(operand),
                })
            }
            _ => self.parse_postfix_expr(),
        }
    }

    fn parse_postfix_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut expr = self.parse_primary()?;
        loop {
            match self.peek_kind() {
                TokenKind::LBracket => {
                    self.bump();
                    let index = self.parse_expr()?;
                    self.expect(&TokenKind::RBracket, "']' after subscript")?;
                    expr = Expr::index(expr, index);
                }
                TokenKind::Dot => {
                    self.bump();
                    let field = self.expect_ident("a member name")?;
                    expr = Expr::member(expr, field);
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<Expr, Diagnostic> {
        let line = self.line();
        match self.peek_kind() {
            &TokenKind::IntLit(v) => {
                self.bump();
                Ok(Expr::IntLit(v))
            }
            &TokenKind::FloatLit(v) => {
                self.bump();
                Ok(Expr::FloatLit(v))
            }
            TokenKind::StrLit(_) => match self.bump().kind {
                TokenKind::StrLit(s) => Ok(Expr::StrLit(s)),
                other => unreachable!("peeked a string literal, took '{other}'"),
            },
            TokenKind::Ident(_) => {
                let name = self.bump_ident();
                if name == "sizeof" {
                    self.expect(&TokenKind::LParen, "'(' after sizeof")?;
                    let ty = self.parse_type()?;
                    self.expect(&TokenKind::RParen, "')' after sizeof type")?;
                    return Ok(Expr::Sizeof(ty));
                }
                // Function call: ident '('
                if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.eat(&TokenKind::Comma) {
                                continue;
                            }
                            self.expect(&TokenKind::RParen, "')' after call arguments")?;
                            break;
                        }
                    }
                    return Ok(Expr::call(name, args));
                }
                Ok(Expr::Ident(name))
            }
            TokenKind::LParen => {
                // Either a cast `(T*) expr` / `(T) expr` or a parenthesized expression.
                if let TokenKind::Ident(word) = self.peek_ahead(1) {
                    if TYPE_KEYWORDS.contains(&word.as_str()) {
                        self.bump(); // (
                        let ty = self.parse_type()?;
                        self.expect(&TokenKind::RParen, "')' after cast type")?;
                        let expr = self.parse_unary()?;
                        return Ok(Expr::Cast {
                            ty,
                            expr: Box::new(expr),
                        });
                    }
                }
                self.bump();
                let expr = self.parse_expr()?;
                self.expect(&TokenKind::RParen, "')' after parenthesized expression")?;
                Ok(expr)
            }
            other => Err(Diagnostic::error(
                line,
                format!("unexpected token '{other}' in expression"),
            )),
        }
    }
}

// -------------------------------------------------------------------- pragma

/// Parse the text after `#pragma` into an [`OmpDirective`].
pub fn parse_pragma(text: &str, line: u32) -> Result<OmpDirective, Diagnostic> {
    let tokens = Lexer::tokenize(text).map_err(|d| Diagnostic::error(line, d.message))?;
    let mut p = PragmaParser {
        tokens,
        pos: 0,
        line,
    };
    p.parse()
}

struct PragmaParser {
    tokens: Vec<Token>,
    pos: usize,
    line: u32,
}

const CLAUSE_NAMES: &[&str] = &[
    "map",
    "reduction",
    "num_threads",
    "num_teams",
    "thread_limit",
    "schedule",
    "collapse",
    "private",
    "firstprivate",
    "shared",
    "simd",
];

impl PragmaParser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::error(self.line, msg.into())
    }

    fn expect_kind(&mut self, kind: &TokenKind, what: &str) -> Result<(), Diagnostic> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!(
                "in '#pragma omp': expected {what}, found '{}'",
                self.peek()
            )))
        }
    }

    fn parse(&mut self) -> Result<OmpDirective, Diagnostic> {
        match self.peek().clone() {
            TokenKind::Ident(s) if s == "omp" => {
                self.bump();
            }
            other => return Err(self.err(format!("unsupported pragma '{other}' (expected 'omp')"))),
        }

        // Collect directive words until a clause name followed by '(' or EOF.
        let mut words: Vec<String> = Vec::new();
        while let TokenKind::Ident(w) = self.peek().clone() {
            if CLAUSE_NAMES.contains(&w.as_str()) {
                break;
            }
            words.push(w);
            self.bump();
        }
        let joined = words.join(" ");
        let kind = match joined.as_str() {
            "parallel for" => OmpDirectiveKind::ParallelFor,
            "target teams distribute parallel for" => {
                OmpDirectiveKind::TargetTeamsDistributeParallelFor
            }
            "target data" => OmpDirectiveKind::TargetData,
            "atomic" | "atomic update" => OmpDirectiveKind::Atomic,
            "barrier" => OmpDirectiveKind::Barrier,
            other => {
                return Err(self.err(format!(
                    "unknown or unsupported OpenMP directive 'omp {other}'"
                )))
            }
        };

        let mut clauses = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::Eof => break,
                TokenKind::Comma => {
                    self.bump();
                }
                TokenKind::Ident(name) => {
                    self.bump();
                    clauses.push(self.parse_clause(&name)?);
                }
                other => {
                    return Err(self.err(format!("unexpected token '{other}' in pragma clauses")))
                }
            }
        }

        Ok(OmpDirective { kind, clauses })
    }

    fn parse_expr(&mut self) -> Result<Expr, Diagnostic> {
        // Reuse the main expression parser over the remaining tokens.
        let rest: Vec<Token> = self.tokens[self.pos..].to_vec();
        let mut sub = Parser::new(rest, Dialect::OmpLite);
        let expr = sub
            .parse_expr()
            .map_err(|d| Diagnostic::error(self.line, d.message))?;
        self.pos += sub.pos;
        Ok(expr)
    }

    fn parse_var_list(&mut self) -> Result<Vec<String>, Diagnostic> {
        let mut vars = Vec::new();
        loop {
            match self.bump() {
                TokenKind::Ident(v) => vars.push(v),
                other => return Err(self.err(format!("expected a variable name, found '{other}'"))),
            }
            if self.peek() == &TokenKind::Comma {
                self.bump();
                continue;
            }
            break;
        }
        Ok(vars)
    }

    fn parse_clause(&mut self, name: &str) -> Result<OmpClause, Diagnostic> {
        match name {
            "simd" => {
                // Accept and normalize `simd` as a no-argument schedule hint.
                Ok(OmpClause::Schedule {
                    kind: ScheduleKind::Static,
                    chunk: None,
                })
            }
            "map" => {
                self.expect_kind(&TokenKind::LParen, "'(' after map")?;
                // map kind is optional; defaults to tofrom
                let kind = match self.peek().clone() {
                    TokenKind::Ident(k)
                        if matches!(k.as_str(), "to" | "from" | "tofrom" | "alloc")
                            && self.tokens.get(self.pos + 1).map(|t| &t.kind)
                                == Some(&TokenKind::Colon) =>
                    {
                        self.bump();
                        self.bump(); // ':'
                        match k.as_str() {
                            "to" => MapKind::To,
                            "from" => MapKind::From,
                            "alloc" => MapKind::Alloc,
                            _ => MapKind::ToFrom,
                        }
                    }
                    _ => MapKind::ToFrom,
                };
                let mut sections = Vec::new();
                loop {
                    let var = match self.bump() {
                        TokenKind::Ident(v) => v,
                        other => {
                            return Err(
                                self.err(format!("expected a mapped variable, found '{other}'"))
                            )
                        }
                    };
                    let (lower, len) = if self.peek() == &TokenKind::LBracket {
                        self.bump();
                        let lower = self.parse_expr()?;
                        self.expect_kind(&TokenKind::Colon, "':' in array section")?;
                        let len = self.parse_expr()?;
                        self.expect_kind(&TokenKind::RBracket, "']' after array section")?;
                        (Some(lower), Some(len))
                    } else {
                        (None, None)
                    };
                    sections.push(MapSection { var, lower, len });
                    if self.peek() == &TokenKind::Comma {
                        self.bump();
                        continue;
                    }
                    break;
                }
                self.expect_kind(&TokenKind::RParen, "')' after map clause")?;
                Ok(OmpClause::Map { kind, sections })
            }
            "reduction" => {
                self.expect_kind(&TokenKind::LParen, "'(' after reduction")?;
                let op = match self.bump() {
                    TokenKind::Plus => ReductionOp::Add,
                    TokenKind::Star => ReductionOp::Mul,
                    TokenKind::Ident(s) if s == "min" => ReductionOp::Min,
                    TokenKind::Ident(s) if s == "max" => ReductionOp::Max,
                    other => {
                        return Err(self.err(format!("unsupported reduction operator '{other}'")))
                    }
                };
                self.expect_kind(&TokenKind::Colon, "':' in reduction clause")?;
                let vars = self.parse_var_list()?;
                self.expect_kind(&TokenKind::RParen, "')' after reduction clause")?;
                Ok(OmpClause::Reduction { op, vars })
            }
            "num_threads" | "num_teams" | "thread_limit" => {
                self.expect_kind(&TokenKind::LParen, "'('")?;
                let e = self.parse_expr()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                Ok(match name {
                    "num_threads" => OmpClause::NumThreads(e),
                    "num_teams" => OmpClause::NumTeams(e),
                    _ => OmpClause::ThreadLimit(e),
                })
            }
            "schedule" => {
                self.expect_kind(&TokenKind::LParen, "'(' after schedule")?;
                let kind = match self.bump() {
                    TokenKind::Ident(s) if s == "static" => ScheduleKind::Static,
                    TokenKind::Ident(s) if s == "dynamic" => ScheduleKind::Dynamic,
                    TokenKind::Ident(s) if s == "guided" => ScheduleKind::Guided,
                    other => return Err(self.err(format!("unknown schedule kind '{other}'"))),
                };
                let chunk = if self.peek() == &TokenKind::Comma {
                    self.bump();
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                self.expect_kind(&TokenKind::RParen, "')' after schedule clause")?;
                Ok(OmpClause::Schedule { kind, chunk })
            }
            "collapse" => {
                self.expect_kind(&TokenKind::LParen, "'(' after collapse")?;
                let n = match self.bump() {
                    TokenKind::IntLit(v) if v >= 1 => v as u32,
                    other => {
                        return Err(self.err(format!(
                            "collapse expects a positive integer, found '{other}'"
                        )))
                    }
                };
                self.expect_kind(&TokenKind::RParen, "')' after collapse clause")?;
                Ok(OmpClause::Collapse(n))
            }
            "private" | "firstprivate" | "shared" => {
                self.expect_kind(&TokenKind::LParen, "'('")?;
                let vars = self.parse_var_list()?;
                self.expect_kind(&TokenKind::RParen, "')'")?;
                Ok(match name {
                    "private" => OmpClause::Private(vars),
                    "firstprivate" => OmpClause::FirstPrivate(vars),
                    _ => OmpClause::Shared(vars),
                })
            }
            other => Err(self.err(format!("unknown OpenMP clause '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_cuda(src: &str) -> Program {
        parse(src, Dialect::CudaLite).expect("parse cuda")
    }

    fn parse_omp(src: &str) -> Program {
        parse(src, Dialect::OmpLite).expect("parse omp")
    }

    #[test]
    fn parse_kernel_and_main() {
        let p = parse_cuda(
            r#"
            __global__ void add(float* out, const float* a, const float* b, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n) { out[i] = a[i] + b[i]; }
            }
            int main() {
                int n = 1024;
                return 0;
            }
            "#,
        );
        assert_eq!(p.items.len(), 2);
        let k = p.function("add").unwrap();
        assert_eq!(k.qualifier, FnQualifier::Kernel);
        assert_eq!(k.params.len(), 4);
        assert!(k.params[1].is_const);
        assert!(p.main().is_some());
    }

    #[test]
    fn parse_kernel_launch() {
        let p = parse_cuda(
            r#"
            __global__ void k(float* x) { x[0] = 1.0; }
            int main() {
                float* d;
                cudaMalloc(&d, 16 * sizeof(float));
                dim3 grid(4);
                dim3 block(256);
                k<<<grid, block>>>(d);
                cudaDeviceSynchronize();
                return 0;
            }
            "#,
        );
        let main = p.main().unwrap();
        let has_launch = main
            .body
            .stmts
            .iter()
            .any(|s| matches!(s.kind, StmtKind::KernelLaunch(_)));
        assert!(has_launch);
    }

    #[test]
    fn parse_launch_with_expressions() {
        let p = parse_cuda(
            r#"
            __global__ void k(float* x, int n) { }
            int main() {
                float* d;
                int n = 100;
                k<<<(n + 255) / 256, 256>>>(d, n);
                return 0;
            }
            "#,
        );
        let main = p.main().unwrap();
        let launch = main.body.stmts.iter().find_map(|s| match &s.kind {
            StmtKind::KernelLaunch(l) => Some(l),
            _ => None,
        });
        let launch = launch.expect("launch");
        assert_eq!(launch.args.len(), 2);
    }

    #[test]
    fn parse_pragma_target_teams() {
        let p = parse_omp(
            r#"
            int main() {
                int n = 64;
                double sum = 0.0;
                #pragma omp target teams distribute parallel for reduction(+:sum) map(tofrom: sum)
                for (int i = 0; i < n; i++) {
                    sum += 1.0;
                }
                return 0;
            }
            "#,
        );
        let main = p.main().unwrap();
        let pragma = main.body.stmts.iter().find_map(|s| match &s.kind {
            StmtKind::Pragma(pr) => Some(pr),
            _ => None,
        });
        let pragma = pragma.expect("pragma");
        assert_eq!(
            pragma.directive.kind,
            OmpDirectiveKind::TargetTeamsDistributeParallelFor
        );
        assert!(pragma.directive.reduction().is_some());
        assert!(matches!(
            pragma.body.as_ref().unwrap().kind,
            StmtKind::For(_)
        ));
    }

    #[test]
    fn parse_pragma_map_sections() {
        let d = parse_pragma(
            "omp target teams distribute parallel for map(to: a[0:n*n], b[0:n]) map(from: c[0:n]) num_threads(256) schedule(static) collapse(2)",
            1,
        )
        .unwrap();
        assert_eq!(d.map_clauses().count(), 2);
        assert_eq!(d.collapse(), 2);
        let (kind, sections) = d.map_clauses().next().unwrap();
        assert_eq!(*kind, MapKind::To);
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].var, "a");
    }

    #[test]
    fn parse_pragma_atomic() {
        let p = parse_omp(
            r#"
            int main() {
                double s = 0.0;
                #pragma omp atomic
                s += 1.0;
                return 0;
            }
            "#,
        );
        let main = p.main().unwrap();
        let pragma = main.body.stmts.iter().find_map(|s| match &s.kind {
            StmtKind::Pragma(pr) => Some(pr),
            _ => None,
        });
        assert_eq!(pragma.unwrap().directive.kind, OmpDirectiveKind::Atomic);
    }

    #[test]
    fn unknown_directive_rejected() {
        assert!(parse_pragma("omp teams loop", 5).is_err());
        assert!(parse_pragma("acc parallel", 5).is_err());
    }

    #[test]
    fn parse_casts_sizeof_malloc() {
        let p = parse_cuda(
            r#"
            int main() {
                int n = 10;
                float* a = (float*)malloc(n * sizeof(float));
                long bytes = (long)n * 4;
                free(a);
                return 0;
            }
            "#,
        );
        let main = p.main().unwrap();
        match &main.body.stmts[1].kind {
            StmtKind::VarDecl(d) => {
                assert_eq!(d.ty, Type::Float.ptr());
                assert!(matches!(d.init, Some(Expr::Cast { .. })));
            }
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn parse_ternary_and_precedence() {
        let p = parse_cuda("int main() { int x = 1 + 2 * 3 < 7 ? 4 : 5; return x; }");
        let main = p.main().unwrap();
        match &main.body.stmts[0].kind {
            StmtKind::VarDecl(d) => match d.init.as_ref().unwrap() {
                Expr::Ternary { cond, .. } => match cond.as_ref() {
                    Expr::Binary {
                        op: BinOp::Lt, lhs, ..
                    } => match lhs.as_ref() {
                        Expr::Binary {
                            op: BinOp::Add,
                            rhs,
                            ..
                        } => {
                            assert!(matches!(rhs.as_ref(), Expr::Binary { op: BinOp::Mul, .. }));
                        }
                        other => panic!("bad lhs {other:?}"),
                    },
                    other => panic!("bad cond {other:?}"),
                },
                other => panic!("expected ternary, got {other:?}"),
            },
            other => panic!("unexpected stmt {other:?}"),
        }
    }

    #[test]
    fn parse_for_variants() {
        let p = parse_cuda(
            r#"
            int main() {
                int s = 0;
                for (int i = 0; i < 10; i++) { s += i; }
                for (int j = 0; j < 10; j += 2) s += j;
                int k;
                for (k = 0; k < 5; k = k + 1) { s += k; }
                return s;
            }
            "#,
        );
        let main = p.main().unwrap();
        let fors: Vec<&ForStmt> = main
            .body
            .stmts
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::For(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(fors.len(), 3);
        assert!(fors[0].canonical().is_some());
        assert!(fors[1].canonical().is_some());
        assert!(fors[2].canonical().is_some());
    }

    #[test]
    fn parse_while_break_continue() {
        let p = parse_cuda(
            "int main() { int i = 0; while (i < 10) { i++; if (i == 5) { continue; } if (i == 8) { break; } } return i; }",
        );
        assert!(p.main().is_some());
    }

    #[test]
    fn parse_shared_decl_and_syncthreads() {
        let p = parse_cuda(
            r#"
            __global__ void reduce(float* out, const float* in, int n) {
                __shared__ float tile[256];
                int tid = threadIdx.x;
                tile[tid] = in[tid];
                __syncthreads();
                if (tid == 0) { out[0] = tile[0]; }
            }
            int main() { return 0; }
            "#,
        );
        let k = p.function("reduce").unwrap();
        match &k.body.stmts[0].kind {
            StmtKind::VarDecl(d) => {
                assert!(d.is_shared);
                assert!(d.array_len.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_messages_cite_lines() {
        let err = parse("int main() {\n  int x = ;\n}", Dialect::CudaLite).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unexpected token"));
    }

    #[test]
    fn missing_semicolon_is_error() {
        let err = parse("int main() { int x = 3 return x; }", Dialect::CudaLite).unwrap_err();
        assert!(err.message.contains("';'"), "{}", err.message);
    }

    #[test]
    fn unbalanced_brace_is_error() {
        assert!(parse("int main() { int x = 3;", Dialect::CudaLite).is_err());
    }

    #[test]
    fn empty_program_is_error() {
        assert!(parse("", Dialect::CudaLite).is_err());
    }

    #[test]
    fn parse_member_chains_and_calls() {
        let p = parse_cuda(
            "__global__ void k(float* a) { int i = blockIdx.x * blockDim.x + threadIdx.x; a[i] = sqrt(fabs(a[i])); } int main() { return 0; }",
        );
        assert_eq!(p.kernels().count(), 1);
    }

    #[test]
    fn parse_unsigned_and_long_long() {
        let p = parse_cuda(
            "int main() { unsigned int a = 1; long long b = 2; unsigned long c = 3; return 0; }",
        );
        let main = p.main().unwrap();
        assert_eq!(main.body.stmts.len(), 4);
    }
}
